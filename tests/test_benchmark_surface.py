"""The names perfbench reads from facedet exist, read from its source.

perfbench binds its hooks and calls by module attribute, so a renamed or
deleted facedet name breaks only the benchmark run, which this suite does
not start. The test parses ``perfbench/*.py`` with ``ast`` and imports
nothing from perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _aliases(tree: ast.Module, modules: set[str]) -> dict[str, str]:
    """Each name a perfbench file binds by import to a facedet module or
    name (a dotted path), or to another perfbench module (``bench:name``)."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                if a.asname is None and root == "facedet":
                    out[root] = root
                elif a.name in modules:
                    out[a.asname or a.name] = f"bench:{a.name}"
        elif isinstance(node, ast.ImportFrom) and node.module:
            for a in node.names:
                if node.module.split(".")[0] == "facedet":
                    out[a.asname or a.name] = f"{node.module}.{a.name}"
                elif node.module in modules:
                    out[a.asname or a.name] = f"bench:{node.module}.{a.name}"
    return out


def _resolve(path: str):
    """The object at a dotted facedet path: the longest importable module,
    then attributes; raises AttributeError for a missing name."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


def _params(fn) -> set[str] | None:
    """The parameter names of ``fn``, or None when it takes ``**kwargs``."""
    params = inspect.signature(fn).parameters.values()
    if any(p.kind is p.VAR_KEYWORD for p in params):
        return None
    return {p.name for p in params}


def test_perfbench_reads_only_names_and_parameters_facedet_has():
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(BENCH.glob("*.py"))}
    aliases = {name: _aliases(tree, set(trees)) for name, tree in trees.items()}

    def dotted(node, names):
        """The facedet path of a name or attribute chain, or None."""
        if isinstance(node, ast.Name):
            path = names.get(node.id)
        elif isinstance(node, ast.Attribute):
            path = dotted(node.value, names)
            path = path and f"{path}.{node.attr}"
        else:
            return None
        while path and path.startswith("bench:"):  # a name another perfbench module imported
            module, _, rest = path[len("bench:"):].partition(".")
            head, _, tail = rest.partition(".")
            path = aliases[module].get(head) if head else None
            path = path and (f"{path}.{tail}" if tail else path)
        return path

    problems, checked = [], 0
    for module, tree in trees.items():
        names = aliases[module]
        for node in ast.walk(tree):
            where = f"perfbench/{module}.py:{getattr(node, 'lineno', '?')}"
            path = dotted(node, names) if isinstance(node, ast.Attribute) else None
            if path:
                checked += 1
                try:
                    _resolve(path)
                except AttributeError:
                    problems.append(f"{where}: reads {path}, which facedet does not have")
            if not isinstance(node, ast.Call):
                continue
            call = dotted(node.func, names)
            if call and call.startswith("facedet"):
                try:
                    params = _params(_resolve(call))
                except (AttributeError, TypeError, ValueError):
                    params = None  # a missing name is reported above; a builtin has no signature
                for kw in node.keywords:
                    if params is not None and kw.arg is not None and kw.arg not in params:
                        problems.append(f"{where}: passes {kw.arg}= to {call}, which has no such parameter")
            # the benchmark's hooks; one perfbench test hooks a missing name on purpose
            if getattr(node.func, "id", None) != "Hook" or module.startswith("test_"):
                continue
            target, function = (ast.literal_eval(arg) for arg in node.args[:2])
            checked += 1
            try:
                params = _params(getattr(importlib.import_module(target), function))
            except AttributeError:
                problems.append(f"{where}: hooks {target}.{function}, which facedet does not have")
                continue
            for count in node.args[3:4] + [k.value for k in node.keywords if k.arg == "count"]:
                if not isinstance(count, ast.Lambda):
                    continue
                bound = count.args.args[0].arg
                for sub in ast.walk(count.body):
                    if (isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
                            and sub.value.id == bound and isinstance(sub.slice, ast.Constant)):
                        if params is not None and sub.slice.value not in params:
                            problems.append(
                                f"{where}: counts {bound}[{sub.slice.value!r}] of {target}.{function}, "
                                "which has no such parameter"
                            )
    assert checked > 50, "perfbench's facedet reads were not found"
    assert not problems, "\n".join(problems)
