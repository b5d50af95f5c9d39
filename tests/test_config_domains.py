"""Every config value outside its key's domain exits 2, naming the key and the layer.

The cases come from the config tables, not from a hand list: every key of
``config._CONFIG`` and its nested tables (``pace`` among them) and every
field of each ``config._DATA`` dataset gets a NaN, both infinities and a
value of the wrong type, and a key with a domain (a range, a closed set of
names or a list of ranged numbers) also the nearest values outside it. A
number key without a domain would take a NaN; ``UNBOUNDED`` names the only
ones that may, so a key that loses its domain fails here.
"""

import json
import math

import pytest

from pcbls import config
from pcbls.cli import main

# number keys that take any value of their type: the seed, and a schedule's
# numbers, which the schedule itself and its per-epoch check refuse
UNBOUNDED = {"seed"} | {
    f"{schedule}.{key}"
    for schedule in ("schedule", "svls_schedule")
    for key in ("init", "rate", "floor", "cap", "range", "seed")
}


def _leaves(table=config._CONFIG, path=""):
    """(test id, dotted key, kind, default, the config file holding a value
    of it) for every key that a config file sets, at any depth."""
    for key, (kind, default) in table.items():
        if kind is config._DERIVED:
            continue
        if kind is config._DATA:
            yield "data.name", "data.name", tuple(kind), "blobs", lambda v: {"data": {"name": v}}
            for name, fields in kind.items():
                for field, (sub, value) in fields.items():
                    # a dataset read from files needs its path, given before the field
                    base = {"name": name, **({"path": "p"} if "path" in fields else {})}
                    layer = lambda v, base=base, field=field: {"data": {**base, field: v}}  # noqa: E731
                    yield f"data[{name}].{field}", f"data.{field}", sub, value, layer
        elif isinstance(kind, dict):
            for case, dotted, sub, value, inner in _leaves(kind, f"{path}{key}."):
                yield case, dotted, sub, value, lambda v, key=key, inner=inner: {key: inner(v)}
        else:
            yield path + key, path + key, kind, default, lambda v, key=key: {key: v}


def _numeric(kind) -> bool:
    if isinstance(kind, list):
        return _numeric(kind[0])
    return isinstance(kind, config._Range) or kind in (int, float)


def _outside_range(r: config._Range) -> list:
    """The values of ``r``'s type nearest outside its domain."""
    def step(x, direction):
        return x + direction if r.kind is int else math.nextafter(x, direction * math.inf)

    values = [r.lo if r.above else step(r.lo, -1)]
    if r.hi is not None:
        values.append(step(r.hi, 1) if r.closed else r.hi)
    if r.odd:
        values.append(r.lo + r.lo % 2)  # the least even value at or above lo
    return values


def _refused(kind, default) -> list:
    """The values a key of ``kind`` must refuse."""
    values = [math.nan, math.inf, -math.inf, "1" if _numeric(kind) else 1]
    if isinstance(kind, config._Range):
        values += _outside_range(kind)
    elif isinstance(kind, tuple):
        values.append(kind[0] + "_")
    elif isinstance(kind, list) and isinstance(kind[0], config._Range):
        for i, element in enumerate(kind):
            values += [[*default[:i], v, *default[i + 1:]] for v in _outside_range(element)]
    return values


LEAVES = list(_leaves())


def test_every_number_key_has_a_domain_or_is_unbounded():
    plain = {dotted for _, dotted, kind, _, _ in LEAVES if _numeric(kind) and not isinstance(
        kind[0] if isinstance(kind, list) else kind, config._Range)}
    assert plain == UNBOUNDED


@pytest.mark.parametrize("case, dotted, kind, default, layer", LEAVES, ids=[leaf[0] for leaf in LEAVES])
def test_value_outside_the_domain_exits_2_naming_the_key_and_the_layer(
    tmp_path, capsys, case, dotted, kind, default, layer
):
    # a schedule's unbounded numbers only refuse a value of the wrong type
    values = ["1"] if dotted in UNBOUNDED else _refused(kind, default)
    cfg, out = tmp_path / "cfg.json", tmp_path / "run"
    for value in values:
        cfg.write_text(json.dumps(layer(value)))
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {dotted} must ") and err.count("\n") == 1, (value, err)
        assert not out.exists(), value
