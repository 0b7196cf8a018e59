"""List every setting of src/ptspec and the files that set it.

    python3 tools/settings_inventory.py

A setting is a parameter with a default value of a function or method in
src/ptspec, or a field with a default value of one of its dataclasses.
A call sets it when it passes the parameter by keyword, or passes enough
positional arguments to reach it, to a callee of the same name (the last
part of the called name; a dataclass field also through
dataclasses.replace with that keyword).  Calls are matched by name alone,
so two functions of one name share their setters; cls(...) in a class
body calls that class.  A call that hands on a variable of the
parameter's own name, from inside a function whose parameter of that
name has a default, is a pass-through and is listed apart: it sets only
what its own caller set.  The scan covers src/, tests/, demos/,
perfbench/ and tools/.  Prints a Markdown table, one row per setting, the
settings that only tests/ and demos/ set (knobs that no caller of the
package turns), and the count of settings: those some call sets, of them
those set only in tests/ and demos/, those only passed through, and those
neither.
"""

import ast
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ptspec"
SCANNED = ("src", "tests", "demos", "perfbench", "tools")
EXAMPLES = ("tests", "demos")


def _is_dataclass(cls: ast.ClassDef) -> bool:
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _fields(cls: ast.ClassDef) -> list[tuple[str, str | None]]:
    """(name, default source or None) of each dataclass field, in order."""
    return [(st.target.id, None if st.value is None else ast.unparse(st.value))
            for st in cls.body
            if isinstance(st, ast.AnnAssign) and isinstance(st.target, ast.Name)]


def _params(fn: ast.FunctionDef, method: bool) -> tuple[list[tuple[str, str | None]], list]:
    """(positional params with default source or None, keyword-only ones)."""
    args = fn.args
    positional = args.posonlyargs + args.args
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    pos = [(a.arg, None if d is None else ast.unparse(d)) for a, d in zip(positional, defaults)]
    if method and pos and pos[0][0] in ("self", "cls"):
        pos = pos[1:]
    kwonly = [(a.arg, None if d is None else ast.unparse(d))
              for a, d in zip(args.kwonlyargs, args.kw_defaults)]
    return pos, kwonly


def settings() -> list[dict]:
    """Every defaulted parameter and field of the package, in source order."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    fields = _fields(node)
                    for i, (name, default) in enumerate(fields):
                        if default is not None:
                            found.append(dict(owner=f"{module}.{node.name}", callee=node.name,
                                              name=name, default=default, index=i,
                                              field=True))
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef):
                        found += _function_settings(f"{module}.{node.name}.{fn.name}", fn, True)
            elif isinstance(node, ast.FunctionDef):
                found += _function_settings(f"{module}.{node.name}", node, False)
    return found


def _function_settings(owner: str, fn: ast.FunctionDef, method: bool) -> list[dict]:
    pos, kwonly = _params(fn, method)
    out = [dict(owner=owner, callee=fn.name, name=name, default=default, index=i, field=False)
           for i, (name, default) in enumerate(pos) if default is not None]
    out += [dict(owner=owner, callee=fn.name, name=name, default=default, index=None,
                 field=False)
            for name, default in kwonly if default is not None]
    return out


class _Calls(ast.NodeVisitor):
    """Each argument of each call: (callee name, "kw" or "pos", keyword or
    position, value, the defaulted parameters of the function that makes
    the call)."""

    def __init__(self):
        self.scopes: list[set[str]] = [set()]
        self.classes: list[str] = []
        self.calls = []

    def visit_ClassDef(self, node):
        self.classes.append(node.name)
        self.generic_visit(node)
        self.classes.pop()

    def visit_FunctionDef(self, node):
        pos, kwonly = _params(node, False)
        self.scopes.append({name for name, default in pos + kwonly if default is not None})
        self.generic_visit(node)
        self.scopes.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        callee = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if callee == "cls" and self.classes:  # a classmethod builds its own class
            callee = self.classes[-1]
        if callee is not None:
            own = self.scopes[-1]
            for kw in node.keywords:
                if kw.arg is not None:
                    self.calls.append((callee, "kw", kw.arg, kw.value, own))
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                self.calls.append((callee, "pos", i, arg, own))
        self.generic_visit(node)


def setters(found: list[dict]) -> dict:
    """{(owner, name): ({files that set it}, {files that pass it through})}."""
    by_callee = defaultdict(list)
    field_names = defaultdict(list)
    for s in found:
        by_callee[s["callee"]].append(s)
        if s["field"]:
            field_names[s["name"]].append(s)
    hits = {(s["owner"], s["name"]): (set(), set()) for s in found}
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            rel = str(path.relative_to(ROOT))
            calls = _Calls()
            calls.visit(ast.parse(path.read_text()))
            for callee, kind, key, value, own in calls.calls:
                targets = [s for s in by_callee.get(callee, ())
                           if (s["name"] == key if kind == "kw" else s["index"] == key)]
                if callee == "replace" and kind == "kw":
                    targets += field_names.get(key, [])
                for s in targets:
                    setting, passing = hits[(s["owner"], s["name"])]
                    through = (isinstance(value, ast.Name) and value.id == s["name"]
                               and s["name"] in own)
                    (passing if through else setting).add(rel)
    return hits


def main() -> int:
    found = settings()
    hits = setters(found)
    print("| setting | default | set in | passed through in |")
    print("|---|---|---|---|")
    set_count = through_count = 0
    examples_only = []
    for s in found:
        setting, passing = hits[(s["owner"], s["name"])]
        set_count += bool(setting)
        through_count += bool(passing) and not setting
        if setting and all(rel.split("/")[0] in EXAMPLES for rel in setting):
            examples_only.append(f"`{s['owner']}({s['name']})`")
        print(f"| `{s['owner']}({s['name']})` | `{s['default']}` | "
              f"{', '.join(sorted(setting)) or '—'} | {', '.join(sorted(passing)) or '—'} |")
    print(f"\nSet only in tests/ and demos/: {', '.join(examples_only) or '—'}")
    print(f"\n{len(found)} settings: {set_count} set by some call ({len(examples_only)} only "
          f"in tests/ and demos/), {through_count} only passed through, "
          f"{len(found) - set_count - through_count} neither")
    return 0


if __name__ == "__main__":
    sys.exit(main())
