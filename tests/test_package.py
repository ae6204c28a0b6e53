"""Package surface tests.

Core claims:
    - every name in ``recridge.__all__`` resolves and is listed once
    - the README's library example runs as written
    - every command in the README's CLI block parses, flags included
    - every module is named in the package docstring and the README layout
    - the package imports only the standard library and numpy
"""

import ast
import pathlib
import shlex
import sys

import recridge
from recridge import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_all_names_resolve_once():
    names = recridge.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(recridge, name)]
    assert not missing


def test_readme_library_example_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README}:Library", "exec"), namespace)
    assert namespace["labels"].shape == (5,)
    assert set(namespace["labels"].tolist()) <= {0, 1, 2, 3}


def test_readme_cli_commands_parse():
    # a flag the parser no longer has fails here, for its verb
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("\n```", 1)[0]
    verbs = []
    for line in block.splitlines():
        argv = shlex.split(line, comments=True)
        if argv:
            assert argv[0] == "recridge", line
            verbs.append(cli.build_parser().parse_args(argv[1:]).verb)
    assert set(verbs) == {"gen", "run", "verify", "gradcheck", "metrics"}


def test_every_module_is_documented():
    layout = README.read_text(encoding="utf-8").split("\n## Layout\n", 1)[1]
    src = pathlib.Path(recridge.__file__).parent
    for module in sorted(p.stem for p in src.glob("*.py") if not p.stem.startswith("_")):
        assert f"``{module}``" in recridge.__doc__, module
        assert f"{module}.py" in layout, module


def test_only_runtime_dependency_is_numpy():
    allowed = set(sys.stdlib_module_names) | {"numpy", "recridge"}
    for path in sorted(pathlib.Path(recridge.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue  # relative imports are recridge's own modules
            for name in names:
                assert name.split(".")[0] in allowed, (path.name, name)
