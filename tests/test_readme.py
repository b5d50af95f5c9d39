"""README's tables agree with the program.

The key table, the ``data`` key table and the preset table in README's
"Config file" section restate ``config._CONFIG``, ``config._DATA`` and
``config.PRESETS``, and the task table restates ``trainer.TASKS``; a
default, a range, a preset or a task's choice changed in one place and not
the other fails here. The module table may name only functions and
classes its modules hold, and ``pcbls.__all__`` only names that resolve.
"""

import importlib
import json
import re
from pathlib import Path

import pcbls
from pcbls import config, trainer

README = Path(__file__).resolve().parent.parent / "README.md"


def _unquoted(cell: str) -> str:
    """A cell that is one code span, without its backticks; any other as it is."""
    return cell[1:-1] if re.fullmatch(r"`[^`]*`", cell) else cell


def _table(header: list[str]) -> dict[str, list[str]]:
    """The body of the README table whose header row is ``header``, by the
    first cell of each row; a cell that is one code span is unquoted."""
    lines = README.read_text(encoding="utf-8").splitlines()
    head = "| " + " | ".join(header) + " |"
    start = lines.index(head) + 2  # past the header and the |---| row
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in line.strip()[1:-1].split("|")]
        rows[_unquoted(cells[0])] = [_unquoted(c) for c in cells[1:]]
    return rows


def _range(kind) -> str:
    """The README form of a table type's domain: a _Range's, the names of a
    tuple, the one of a list's entries, or empty."""
    if isinstance(kind, list):
        assert len(set(kind)) == 1, kind  # one cell states the range of every entry
        kind = kind[0]
    if isinstance(kind, tuple):
        return f"one of {', '.join(kind)}"
    return str(kind) if isinstance(kind, config._Range) else ""


def test_key_table_gives_each_key_and_default():
    rows = _table(["key", "type", "range", "default", "notes"])
    assert list(rows) == list(config._CONFIG)
    for key, (kind, default) in config._CONFIG.items():
        kind_cell, range_cell, default_cell, _ = rows[key]
        if kind is config._DERIVED:
            assert (kind_cell, default_cell) == ("derived", ""), key
        else:
            assert json.loads(default_cell) == default, key
        assert range_cell == _range(kind), key


def test_data_table_gives_each_field_type_and_default():
    rows = _table(["`name`", "keys (type, default, range if any)"])
    assert list(rows) == list(config._DATA)
    for name, fields in config._DATA.items():
        # a range may end in its own ")", as "in [0, 1)" does
        listed = re.findall(r"`(\w+)` \((\w+), ([^,)]*)(?:, ([^)]*\)?))?\)", rows[name][0])
        assert [key for key, _, _, _ in listed] == list(fields), name
        for key, type_name, default, range_text in listed:
            kind, want = fields[key]
            base = kind.kind if isinstance(kind, config._Range) else kind
            assert type_name == config._TYPE_NAMES[base], f"data.{key} of {name}"
            assert (config._REQUIRED if default == "required" else json.loads(default)) == want, f"data.{key} of {name}"
            assert range_text == _range(kind), f"data.{key} of {name}"


def test_preset_table_gives_each_layer_and_pace():
    rows = _table(["preset", "layer", "`pace` (added by `--pace`)"])
    assert list(rows) == list(config.PRESETS)
    for name, preset in config.PRESETS.items():
        layer, pace = rows[name]
        assert json.loads(layer) == {key: value for key, value in preset.items() if key != "pace"}, name
        assert (None if pace == "none" else json.loads(pace)) == preset.get("pace"), name


def test_module_table_names_only_what_its_modules_hold():
    rows = _table(["module", "what it does"])
    assert rows
    for first, (text,) in rows.items():
        modules = [importlib.import_module(m) for m in re.findall(r"pcbls\.\w+", first)]
        assert modules, first
        names = [n for n in re.findall(r"`([^`]*)`", text) if re.fullmatch(r"[A-Za-z_]\w*", n)]
        for name in names:
            if first == "pcbls.cli":  # a command name
                assert callable(getattr(modules[0], f"cmd_{name}", None)), name
            else:
                assert any(hasattr(m, name) for m in modules), f"{first}: {name}"


def test_every_name_in_all_resolves():
    assert [name for name in pcbls.__all__ if not hasattr(pcbls, name)] == []


def _spans(cell: str) -> list[str]:
    """The code spans of a cell; a cell _table unquoted is one."""
    return re.findall(r"`([^`]*)`", cell) or [cell]


def test_task_table_gives_each_tasks_choices():
    rows = _table(["task", "batch check", "soft targets", "probabilities at temperature T", "validation metrics",
                   "sample-bank score", "default `arch`"])
    assert list(rows) == list(trainer.TASKS)
    for name, entry in trainer.TASKS.items():
        check, targets, probs, metrics, bank, arch = rows[name]
        assert arch == entry.arch, name
        assert [c for c in _spans(metrics) if c.startswith("val_")] == list(entry.columns), name
        # each named function is one the entry's callable looks up
        for cell, fn in ((check, entry.check), (targets, entry.soft_targets), (probs, entry.probs), (bank, entry.bank)):
            assert _spans(cell)[0] in fn.__code__.co_names, (name, cell)
