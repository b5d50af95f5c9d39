"""On-disk formats: PPM/PGM images, checkpoints, banks, manifests, CSVs.

All writers go through a temp-file-then-rename step so readers never see a
partially written file: the bytes go to a ``tempfile.mkstemp`` file
``.{name}.XXXXXXXX.tmp`` in the target's directory (mode 0600), which
``os.replace`` then moves over the target. Writers of many files into one
directory (corrupted image sets, pixel banks, image datasets) stage
instead: each of two workers, the calling thread and one helper thread,
creates its temp files in its own hidden ``.*.tmp`` staging directory
inside the target directory and renames each into place under its final
name, so each file still appears through one rename of a complete temp
file. Creating a file costs far more than writing or renaming it, and two
threads creating in one directory contend on it. Formats:

  checkpoint   magic PCKPT1, u8 architecture tag, per-arch u32 dims,
               float64 LE parameters, u64 LE epoch counter
  sample bank  CSV `sample_id,score,source`, descending score, 9-digit scores
  pixel bank   one sidecar per sample i, named {i:06d}.pcbl: magic PCBL,
               u32 H, u32 W, H*W float32 LE scores; all sidecars of a bank
               share H and W
  images       binary PPM (P6) for RGB, PGM (P5) for grayscale, maxval 255
  CSV tables   UTF-8, a cell with a comma, a quote or a line break quoted;
               sample banks, corruption manifests and dataset
               labels.csv are read through one checked reader, _load_table,
               which numbers a row by the file line it starts on
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import queue
import re
import shutil
import struct
import tempfile
import threading
from array import array
from collections.abc import Iterable, Sequence
from pathlib import Path

import numpy as np

from .models import ARCH_NDIMS, ARCHITECTURES, ModelSpec
from .pacing import SampleBank

CHECKPOINT_MAGIC = b"PCKPT1"
PIXELBANK_MAGIC = b"PCBL"
_ARCH_TAG = {name: i + 1 for i, name in enumerate(ARCHITECTURES)}
_TAG_ARCH = {v: k for k, v in _ARCH_TAG.items()}


class FormatError(ValueError):
    """Raised when a file does not parse as the expected format/version."""


# O_CLOEXEC and O_BINARY exist only on some platforms
_TEMP_FLAGS = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0)


def _write_and_replace(fd: int, tmp: str, path: str | Path, data: bytes) -> None:
    """Write ``data`` to the temp file ``tmp`` open as ``fd``, close it and
    rename it to ``path``; on any failure the temp file is unlinked."""
    try:
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename, creating
    missing parent directories; the file gets mode 0600."""
    directory, name = os.path.split(os.fspath(path))
    directory = directory or os.curdir
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=f".{name}.", suffix=".tmp")
    _write_and_replace(fd, tmp, path, data)


def _write_files(directory: str | Path, batches: Iterable[Iterable[tuple[str, bytes]]]) -> None:
    """Write each (name, data) of each batch to ``directory/name``, creating
    the directory; names are flat file names, and each file gets the bytes
    and mode 0600 that ``atomic_write_bytes`` gives it.

    Two workers write, the calling thread and one helper thread, each through
    its own staging directory, made once per call and removed before
    returning. Batches are drawn on the calling thread only, after it has
    handed the previous batch over, so the helper writes while the next batch
    is computed and at most two batches are held. The helper runs only syscalls and ``_write_and_replace``. The
    first error of either worker stops both and is raised as it was.
    """
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    pending: queue.SimpleQueue = queue.SimpleQueue()
    errors: list[BaseException] = []

    def drain(stage: str, block: bool) -> None:
        # a worker's loop: without ``block`` it returns once the queue is
        # empty, with it at the None that ends the call; both stop at the
        # first error of either worker
        while not errors:
            try:
                item = pending.get(block)
            except queue.Empty:
                return
            if item is None:
                return
            name, data = item
            tmp = os.path.join(stage, name)
            try:
                _write_and_replace(os.open(tmp, _TEMP_FLAGS, 0o600), tmp, os.path.join(directory, name), data)
            except BaseException as e:
                errors.append(e)

    stages: list[str] = []
    helper = None
    try:
        for _ in range(2):
            stages.append(tempfile.mkdtemp(dir=directory, prefix=".", suffix=".tmp"))
        thread = threading.Thread(target=drain, args=(stages[1], True))
        thread.start()
        # only a started thread can be joined
        helper = thread
        for batch in batches:
            drain(stages[0], False)
            if errors:
                break
            for item in batch:
                pending.put(item)
        drain(stages[0], False)
    except BaseException as e:
        errors.append(e)
    finally:
        pending.put(None)
        if helper is not None:
            helper.join()
        for stage in stages:
            shutil.rmtree(stage, ignore_errors=True)
    if errors:
        raise errors[0]


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, spec: ModelSpec, params: np.ndarray, epoch: int) -> None:
    buf = bytearray()
    buf += CHECKPOINT_MAGIC
    buf += struct.pack("<B", _ARCH_TAG[spec.architecture])
    buf += struct.pack(f"<{len(spec.dims)}I", *spec.dims)
    buf += np.asarray(params, dtype="<f8").tobytes()
    buf += struct.pack("<Q", epoch)
    atomic_write_bytes(path, bytes(buf))


def load_checkpoint(path: str | Path) -> tuple[ModelSpec, np.ndarray, int]:
    data = Path(path).read_bytes()
    if len(data) < len(CHECKPOINT_MAGIC) + 1 or not data.startswith(CHECKPOINT_MAGIC):
        raise FormatError(f"{path}: not a checkpoint (bad magic)")
    pos = len(CHECKPOINT_MAGIC)
    (tag,) = struct.unpack_from("<B", data, pos)
    pos += 1
    if tag not in _TAG_ARCH:
        raise FormatError(f"{path}: unknown architecture tag {tag}")
    arch = _TAG_ARCH[tag]
    nd = ARCH_NDIMS[arch]
    if len(data) < pos + 4 * nd:
        raise FormatError(f"{path}: truncated checkpoint header")
    dims = struct.unpack_from(f"<{nd}I", data, pos)
    pos += 4 * nd
    try:
        spec = ModelSpec(architecture=arch, dims=dims)
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    count = spec.param_count()
    want = pos + 8 * count + 8
    if len(data) != want:
        raise FormatError(f"{path}: expected {want} bytes, found {len(data)}")
    params = np.frombuffer(data, dtype="<f8", count=count, offset=pos).astype(np.float64)
    pos += 8 * count
    (epoch,) = struct.unpack_from("<Q", data, pos)
    return spec, params, epoch


# ---------------------------------------------------------------------------
# sample banks


def save_bank(path: str | Path, bank: SampleBank) -> None:
    rows = [[int(sid), f"{score:.9f}", bank.source] for sid, score in zip(bank.sample_ids, bank.scores)]
    save_csv(path, ["sample_id", "score", "source"], rows)


def _bank_row(row: list[str]) -> tuple[int, float, str]:
    sid, score, source = int(row[0]), float(row[1]), row[2]
    if not -(2**63) <= sid < 2**63:
        raise ValueError(f"sample id {sid} is outside int64")
    if not math.isfinite(score):
        raise ValueError(f"score {row[1]!r} is not finite")
    return sid, score, source


def load_bank(path: str | Path) -> SampleBank:
    rows, _ = _load_table(path, ["sample_id", "score", "source"], _bank_row)
    sources = sorted({source for _, _, source in rows})
    if len(sources) > 1:
        raise FormatError(f"{path}: mixed bank sources {sources}")
    try:
        return SampleBank(
            sample_ids=np.asarray([sid for sid, _, _ in rows], dtype=np.int64),
            scores=np.asarray([score for _, score, _ in rows], dtype=np.float64),
            source=sources[0] if sources else "plain",
        )
    except ValueError as e:
        # a bank that SampleBank refuses
        raise FormatError(f"{path}: {e}") from e


# ---------------------------------------------------------------------------
# per-sample file sets, and pixel banks (one sidecar file per sample)


def _load_stack(decode, base, names: Sequence[str], shape=None, index=None, lines=None) -> np.ndarray:
    """The stack of ``decode(base/name)`` over ``names``, each of ``shape``
    or else of the first one's shape. No names, or a file that cannot be
    read or decoded or has another shape, raise FormatError naming the file
    (``{base/name}: {reason}``) or, for names that the file ``index`` lists
    on ``lines``, its line (``{index} line {n} ({name}): {reason}``).
    ``decode`` is passed at each call, so a wrapper installed over
    ``load_image`` after import is the one called."""
    if not names:
        raise FormatError(f"{index or base}: no sample files")
    arrays, like = [], "expected"
    for i, name in enumerate(names):
        path = os.path.join(base, name)
        try:
            array = decode(path)
            if shape is None:
                shape, like = array.shape, f"but {name} has shape"
            if array.shape != shape:
                raise FormatError(f"shape {array.shape}, {like} {shape}")
        except (OSError, FormatError) as e:
            reason = f"cannot read the file: {e.strerror}" if isinstance(e, OSError) else str(e)
            where = path if index is None else f"{index} line {lines[i]} ({name})"
            # a decoder's message names the file first; the set's form names it instead
            raise FormatError(f"{where}: {reason.removeprefix(f'{path}: ')}") from e
        arrays.append(array)
    return np.stack(arrays)


def save_pixel_bank(directory: str | Path, maps: np.ndarray) -> None:
    """One sidecar per (H,W) map of an (N,H,W) bank."""
    sidecars = (
        (f"{i:06d}.pcbl", PIXELBANK_MAGIC + struct.pack("<II", *m.shape) + np.asarray(m, dtype="<f4").tobytes())
        for i, m in enumerate(maps)
    )
    _write_files(directory, [sidecars])


def _load_sidecar(path: str) -> np.ndarray:
    """The (H,W) float32 map of one pixel-bank sidecar."""
    data = Path(path).read_bytes()
    if not data.startswith(PIXELBANK_MAGIC):
        raise FormatError(f"{path}: bad pixel-bank magic")
    offset = len(PIXELBANK_MAGIC) + 8
    if len(data) < offset:
        raise FormatError(f"{path}: truncated pixel-bank header")
    h, w = struct.unpack_from("<II", data, len(PIXELBANK_MAGIC))
    if len(data) != offset + 4 * h * w:
        raise FormatError(f"{path}: truncated pixel bank")
    return np.frombuffer(data, dtype="<f4", count=h * w, offset=offset).reshape(h, w)


def load_pixel_bank(directory: str | Path) -> np.ndarray:
    """The (N,H,W) float32 bank of a sidecar directory, map i read from
    ``{i:06d}.pcbl``; every sidecar must hold the same H and W. A gap in the
    ids, or a .pcbl file of another name, is refused by its name."""
    names = {f.name for f in Path(directory).glob("*.pcbl")}
    stray = sorted(name for name in names if not re.fullmatch(r"([0-9]{6}|[1-9][0-9]{6,})\.pcbl", name))
    if stray:
        raise FormatError(f"{directory}: unexpected file {stray[0]}: sidecars are named 000000.pcbl, 000001.pcbl, ...")
    want = [f"{i:06d}.pcbl" for i in range(len(names))]
    if names != set(want):  # every name is an id's, so one below len(names) is missing
        raise FormatError(f"{directory}: sidecar {next(n for n in want if n not in names)} is missing")
    return _load_stack(_load_sidecar, directory, want)


# ---------------------------------------------------------------------------
# images (binary portable pixmaps; floats in [0,1] <-> bytes)


def encode_images(images: np.ndarray) -> list[bytes]:
    """File bytes of each image of an (N,H,W) or (N,H,W,3) float stack in
    [0,1]: binary PGM for grayscale, PPM for RGB, rounded to 8 bits."""
    images = np.asarray(images, dtype=np.float64)
    if images.ndim == 3:
        magic = "P5"
    elif images.ndim == 4 and images.shape[3] == 3:
        magic = "P6"
    else:
        raise ValueError(f"expected (H,W) or (H,W,3) image, got {images.shape[1:]}")
    header = f"{magic}\n{images.shape[2]} {images.shape[1]}\n255\n".encode()
    data = np.clip(np.rint(images * 255.0), 0, 255).astype(np.uint8)
    return [header + d.tobytes() for d in data]


def save_image(path: str | Path, image: np.ndarray) -> None:
    (data,) = encode_images(np.asarray(image)[None])
    atomic_write_bytes(path, data)


# the magic, then width, height and maxval: each a run of ASCII digits that
# ends at whitespace, after any whitespace and '#' comments (a comment runs
# to the end of its line); then the one whitespace byte before the pixels.
# No two branches can match the same bytes, so a mismatch fails in linear time.
_GAP = rb"(?:\s|#[^\n]*(?:\n|\Z))*"
_PNM_HEADER = re.compile(rb"P[56]" + (_GAP + rb"(\d+)(?=\s)") * 2 + _GAP + rb"(\d+)\s")


def load_image(path: str | Path) -> np.ndarray:
    # FileIO.readall: one open, an fstat, a read of a byte past the size and
    # on to the end of the file, so a short read or a growing file loses nothing
    with open(path, "rb", buffering=0) as f:
        data = f.readall()
    if data[:2] not in (b"P5", b"P6"):
        raise FormatError(f"{path}: not a binary PGM/PPM")
    header = _PNM_HEADER.match(data)
    if header is None:
        raise FormatError(f"{path}: bad or truncated header")
    w, h, maxval = (int(f) for f in header.groups())
    if maxval != 255:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    channels = 3 if data[:2] == b"P6" else 1
    expect = w * h * channels
    found = len(data) - header.end()
    if found != expect:
        raise FormatError(f"{path}: expected {expect} pixel bytes, found {found}")
    img = np.frombuffer(data, dtype=np.uint8, offset=header.end()).astype(np.float64) / 255.0
    return img.reshape(h, w) if channels == 1 else img.reshape(h, w, 3)


# ---------------------------------------------------------------------------
# CSV helpers


def save_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    """``header`` and ``rows``, each cell as str() gives it, one record a
    line; a cell that holds a comma, a quote or a line break is quoted."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(str, row) for row in rows)
    atomic_write_text(path, text.getvalue())


def _read_csv(path: str | Path) -> tuple[list[list[str]], array]:
    """The records of a UTF-8 CSV file and the line each starts on (a quoted
    field may span lines), as 8-byte ints. Undecodable bytes, a field longer
    than csv's limit or an empty file raise FormatError naming it."""
    rows, lines, end = [], array("q"), 0
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                rows.append(row)
                lines.append(end + 1)
                end = reader.line_num  # the line this record ends on
    except (UnicodeDecodeError, csv.Error) as e:
        raise FormatError(f"{path}: {e}") from None
    if not rows:
        raise FormatError(f"{path}: empty CSV")
    return rows, lines


def load_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    """The header and rows of a UTF-8 CSV file, checked as _read_csv does."""
    rows, _ = _read_csv(path)
    return rows[0], rows[1:]


def _load_table(path: str | Path, header: list[str], parse) -> tuple[list, array]:
    """``parse(row)`` of each row of the CSV table at ``path``, which must
    have exactly this header, and the line each row starts on. A row with
    another field count, or one that ``parse`` refuses with a ValueError,
    raises FormatError naming the file, the line and the row."""
    rows, lines = _read_csv(path)
    if rows[0] != header:
        raise FormatError(f"{path}: bad header {rows[0]}, expected {','.join(header)}")
    out = []
    lines = lines[1:]
    for line, row in zip(lines, rows[1:]):
        try:
            if len(row) != len(header):
                raise ValueError(f"expected the {len(header)} fields {','.join(header)}")
            out.append(parse(row))
        except (ValueError, OverflowError) as e:
            raise FormatError(f"{path} line {line} {row}: {e}") from None
    return out, lines


def save_json(path: str | Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path):
    with open(path) as fh:
        return json.load(fh)


def check_inside(path: str, where: str) -> None:
    """Refuse ``path``, read relative to an index file's directory, when it
    cannot name a file inside ``where``, that directory: it holds a NUL byte,
    is absolute or climbs out through '..'."""
    if "\0" in path:
        raise ValueError(f"path {path!r} holds a NUL byte")
    rel = os.path.normpath(path)
    if os.path.isabs(rel) or rel == os.pardir or rel.startswith(os.pardir + os.sep):
        raise ValueError(f"path {path!r} leaves {where}")


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; stable across reruns."""
    return repr(float(x))
