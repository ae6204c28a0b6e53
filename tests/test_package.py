"""Package surface tests.

Core claims:
    - every name in ``recridge.__all__`` resolves and is listed once
    - the README's library example runs as written
    - every command in the README's CLI block parses, flags included
    - every module is named in the package docstring and the README layout
    - the package imports only the standard library and numpy
    - only ``fmat.atomic_writer`` replaces, removes or opens a file to write
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


def _writes_files(call: ast.Call) -> bool:
    # os.replace / os.remove, or open() in a mode that writes, appends or
    # creates; a mode that is not a literal counts as writing
    func = call.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return func.value.id == "os" and func.attr in ("replace", "remove")
    if not (isinstance(func, ast.Name) and func.id == "open"):
        return False
    modes = call.args[1:2] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return any(
        not (isinstance(mode, ast.Constant) and isinstance(mode.value, str))
        or set(mode.value) & set("wax+")
        for mode in modes
    )


def test_only_atomic_writer_writes_files():
    # every output file is renamed once, by one mechanism
    src = pathlib.Path(recridge.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "fmat.py":
            writer = next(
                node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "atomic_writer"
            )
            allowed = {id(node) for node in ast.walk(writer)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and id(node) not in allowed and _writes_files(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found
