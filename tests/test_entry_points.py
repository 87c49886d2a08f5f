"""The console scripts in pyproject.toml and the ``python -m`` CLIs
must be the same code: each ``repro-*`` entry point has to resolve to
the exact ``main`` callable the corresponding ``__main__`` module runs,
so the two spellings can never drift apart.
"""

import importlib
import pathlib
import re

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

#: console script -> the module whose ``python -m`` spelling it mirrors
EXPECTED = {
    "repro-sweep": "repro.sweep",
    "repro-obs": "repro.obs",
    "repro-replay": "repro.replay",
    "repro-serve": "repro.serve",
}


def _scripts() -> dict:
    text = PYPROJECT.read_text(encoding="utf-8")
    try:
        import tomllib
    except ImportError:  # pragma: no cover - py3.10
        section = re.search(
            r"\[project\.scripts\](.*?)(?:\n\[|\Z)", text, re.S)
        assert section, "pyproject.toml lacks [project.scripts]"
        return dict(re.findall(r'([\w-]+)\s*=\s*"([^"]+)"', section.group(1)))
    return tomllib.loads(text)["project"]["scripts"]


def test_scripts_table_lists_all_clis():
    assert set(_scripts()) == set(EXPECTED)


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_script_matches_python_m(script):
    target = _scripts()[script]
    mod_name, func_name = target.split(":")
    entry = getattr(importlib.import_module(mod_name), func_name)
    assert callable(entry)
    # The -m path: repro.<pkg>.__main__ imports `main` and calls it.
    dunder = importlib.import_module(EXPECTED[script] + ".__main__")
    assert dunder.main is entry, (
        f"{script} runs {target} but python -m {EXPECTED[script]} runs "
        f"{dunder.main.__module__}.{dunder.main.__qualname__}")


@pytest.mark.parametrize("script", sorted(EXPECTED))
def test_entry_point_smoke_help(script, capsys):
    """Every entry point prints usage and exits 0 on --help."""
    mod_name, func_name = _scripts()[script].split(":")
    entry = getattr(importlib.import_module(mod_name), func_name)
    with pytest.raises(SystemExit) as exc:
        entry(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("script, argv, said", [
    ("repro-sweep", ["ls", "--filter", "["], "bad regex '['"),
    ("repro-sweep", ["run", "--filter", "zzz"], "matches no scenario; have"),
    ("repro-replay", ["replay", "/nonexistent.trace"], "/nonexistent.trace"),
    ("repro-obs", ["top", "/nonexistent.trace"], "/nonexistent.trace"),
    ("repro-obs", ["diagnose", "--trace-in", "/nonexistent.trace"],
     "/nonexistent.trace"),
])
def test_bad_input_is_a_usage_error_not_a_traceback(script, argv, said,
                                                    capsys):
    """A typo'd filter or path goes through the parser's ``error()``:
    usage, one ``error:`` line, exit status 2 (an unknown strategy:
    ``tests/replay/test_search_cli.py``)."""
    mod_name, func_name = _scripts()[script].split(":")
    entry = getattr(importlib.import_module(mod_name), func_name)
    with pytest.raises(SystemExit) as exc:
        entry(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "Traceback" not in err
    assert [said in line for line in err.splitlines()
            if ": error: " in line] == [True]
