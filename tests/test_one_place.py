"""One-place rules: only ``raster.py`` may match a rule's pattern, and each idiom fires its rule."""

import re
import shutil
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "panfuse"
RULES = {  # rule -> (owners in raster.py, pattern no other module may match, spellings it catches)
    "read-only": ("_frozen", r"flags\.writeable = False", ["a.flags.writeable = False"]),
    "real-number": ("_finite_real _real", r"numbers\.Real", ["isinstance(v, numbers.Real)"]),
    "choice": ("_choice", r" not in ", ["if mode not in MODES:"]),
    "real-array": ("_real_array", r"np\.(array|asarray)\b.*dtype=np\.float64", [
        "np.asarray(a, dtype=np.float64)", "(np.array if c else np.asarray)(a, dtype=np.float64)"]),
    "floating-point": ("_finite_result", r'FloatingPointError|over="raise"',
                       ["except FloatingPointError:", 'np.errstate(over="raise")']),
    "carrier-copy": ("_Carrier", r"def __reduce__", ["def __reduce__(self):"]),
    "read-path": ("_read_framed _RowFile", r"os\.preadv|readinto|open\(",
                  ["os.preadv(fd, [a], 0)", "fh.readinto(a)", 'open(path, "rb")']),
    "moments": ("_moments", r"\.(std|var)\(", ["sd = src.std()", "np.var(a)"]),
    "band-count": ("_check_bands", r"\.bands\s*[<>]", ["if fin.lrms.bands < 3:"]),
}


def violations(package: Path) -> dict[str, list[str]]:  # rule -> ["file:line: text", ...]
    lines = [(f"{path.name}:{n}: {line.strip()}", line) for path in sorted(package.glob("*.py"))
             if path.name != "raster.py" for n, line in enumerate(path.read_text().splitlines(), 1)]
    return {r: [at for at, line in lines if re.search(p, line)] for r, (_, p, _) in RULES.items()}


@pytest.mark.parametrize("rule", RULES)
def test_only_raster_spells_the_rule(rule):
    source = (PACKAGE / "raster.py").read_text()
    assert all(re.search(rf"^(def|class) {o}\b", source, re.M) for o in RULES[rule][0].split())
    assert violations(PACKAGE)[rule] == []


@pytest.mark.parametrize("rule", RULES)
def test_a_spelling_in_fusion_py_fires_its_rule_alone(rule, tmp_path):
    fusion = shutil.copytree(PACKAGE, tmp_path / "panfuse") / "fusion.py"
    text = fusion.read_text()
    for spelling in RULES[rule][2]:
        fusion.write_text(f"{text}{spelling}\n")
        assert {r for r, at in violations(fusion.parent).items() if at} == {rule}, spelling
