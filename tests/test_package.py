"""The package's public names must all exist, so ``from rpdml import *`` works,
and each module stays small enough to compile without a memory step."""

import tokenize
from pathlib import Path

import rpdml


def test_every_exported_name_resolves():
    missing = [name for name in rpdml.__all__ if not hasattr(rpdml, name)]
    assert not missing, f"rpdml.__all__ names missing from the package: {missing}"


#: Most tokens a module may have.  Under PYTHONDONTWRITEBYTECODE=1 (no cached
#: bytecode, as on the benchmark host), CPython 3.11's compile peak for one
#: module jumps by about 0.25 MB once the module passes about 4095 tokens, and
#: every benchmark workload's peak RSS with it (CHANGES.md, the FOUND on the
#: compile peak); this bound keeps each module below that step.
MAX_MODULE_TOKENS = 4000


def module_tokens(path: Path) -> int:
    """Tokens of a source file as CPython 3.11 counts them: comments and
    non-logical newlines left out, an f-string one token (3.12 splits it)."""
    count = depth = 0
    with open(path, encoding="utf-8") as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            name = tokenize.tok_name[tok.type]
            if name in ("COMMENT", "NL"):
                continue
            count += depth == 0
            depth += (name == "FSTRING_START") - (name == "FSTRING_END")
    return count


def test_every_module_stays_under_the_compile_step():
    sizes = {path.name: module_tokens(path)
             for path in sorted(Path(rpdml.__file__).parent.glob("*.py"))}
    over = {name: n for name, n in sizes.items() if n > MAX_MODULE_TOKENS}
    assert not over, (f"modules above {MAX_MODULE_TOKENS} tokens: {over}; past ~4095 tokens "
                      "CPython's compile peak steps up by ~0.25 MB (see the FOUND on the "
                      "compile peak in CHANGES.md)")
