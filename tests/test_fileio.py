"""The atomic writers, and parsers that refuse malformed bytes with FormatError only."""

import os
import re
import stat
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pcbls import cli, fileio
from pcbls.corruption import corrupt_dataset
from pcbls.datasets import gen_blobs, load_image_dataset, save_image_dataset
from pcbls.fileio import (
    FormatError,
    _load_table,
    _write_files,
    atomic_write_bytes,
    encode_images,
    load_bank,
    load_checkpoint,
    load_csv,
    load_image,
    load_pixel_bank,
    save_bank,
    save_checkpoint,
    save_csv,
    save_image,
    save_pixel_bank,
)
from pcbls.models import ModelSpec, init_params
from pcbls.pacing import SampleBank


def _mode(path):
    return stat.S_IMODE(os.stat(path).st_mode)


class TestAtomicWriteBytes:
    def test_creates_missing_parents_and_overwrites(self, tmp_path):
        target = tmp_path / "a" / "b" / "f.bin"
        atomic_write_bytes(target, b"first")
        atomic_write_bytes(target, b"second")
        assert target.read_bytes() == b"second"
        assert os.listdir(target.parent) == ["f.bin"]

    def test_file_mode_is_0600(self, tmp_path):
        atomic_write_bytes(tmp_path / "f.bin", b"x")
        assert _mode(tmp_path / "f.bin") == 0o600

    def test_bare_name_writes_into_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        atomic_write_bytes("f.txt", b"here")
        assert os.listdir(tmp_path) == ["f.txt"]
        assert (tmp_path / "f.txt").read_bytes() == b"here"

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "d").mkdir()
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "d", b"x")  # a directory cannot be replaced by a file
        assert os.listdir(tmp_path) == ["d"]
        assert os.listdir(tmp_path / "d") == []

    def test_leaves_a_stale_temp_file_alone(self, tmp_path):
        stale = tmp_path / ".f.bin.12345.tmp"
        stale.write_bytes(b"stale")
        atomic_write_bytes(tmp_path / "f.bin", b"fresh")
        assert (tmp_path / "f.bin").read_bytes() == b"fresh"
        assert _mode(tmp_path / "f.bin") == 0o600
        assert stale.read_bytes() == b"stale"
        assert sorted(os.listdir(tmp_path)) == sorted([stale.name, "f.bin"])

    def test_temp_file_is_a_hidden_sibling_of_the_target(self, tmp_path, monkeypatch):
        renamed, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: renamed.append((src, dst)) or replace(src, dst))
        atomic_write_bytes(tmp_path / "d" / "f.bin", b"x")
        ((src, dst),) = renamed
        assert os.path.dirname(src) == str(tmp_path / "d") and dst == tmp_path / "d" / "f.bin"
        assert re.fullmatch(r"\.f\.bin\.\w+\.tmp", os.path.basename(src))


def _files(count, size=7):
    return [(f"f{i:04d}.bin", bytes([i % 251]) * (size + i)) for i in range(count)]


class TestWriteFiles:
    """The many-file writer: what each file holds, what the directory holds
    afterwards, and that its helper thread never outlives a call."""

    def test_each_file_is_what_atomic_write_bytes_writes(self, tmp_path):
        files = _files(40) + [("empty", b""), ("large", bytes(range(256)) * 4096)]
        _write_files(tmp_path / "many", [files[:10], iter(files[10:]), []])
        for name, data in files:
            atomic_write_bytes(tmp_path / "one" / name, data)
            assert (tmp_path / "many" / name).read_bytes() == (tmp_path / "one" / name).read_bytes() == data
            assert _mode(tmp_path / "many" / name) == _mode(tmp_path / "one" / name) == 0o600

    def test_directory_holds_exactly_the_written_names(self, tmp_path):
        threads = threading.active_count()
        files = _files(50)
        _write_files(tmp_path / "a" / "b", [files[:25], files[25:]])
        assert sorted(os.listdir(tmp_path / "a" / "b")) == [name for name, _ in files]
        assert threading.active_count() == threads

    def test_empty_input_creates_only_the_directory(self, tmp_path):
        _write_files(tmp_path / "none", [])
        _write_files(tmp_path / "empty", [[], []])
        assert os.listdir(tmp_path / "none") == os.listdir(tmp_path / "empty") == []

    @pytest.mark.parametrize("blocked", [[7], list(range(30))])
    def test_failed_write_raises_and_leaves_no_staging_entry(self, tmp_path, blocked):
        # a directory cannot be replaced by a file: the write of each blocked
        # name fails, on whichever worker takes it
        threads = threading.active_count()
        files = _files(30)
        for i in blocked:
            (tmp_path / files[i][0]).mkdir()
        with pytest.raises(OSError):
            _write_files(tmp_path, [files[:15], files[15:]])
        names = {name for name, _ in files}
        assert set(os.listdir(tmp_path)) <= names
        for i in blocked:
            assert os.listdir(tmp_path / files[i][0]) == []
        assert threading.active_count() == threads

    def test_error_of_the_batch_source_is_raised_as_it_was(self, tmp_path):
        threads = threading.active_count()
        files = _files(20)
        failure = RuntimeError("no next batch")

        def batches():
            yield files
            raise failure

        with pytest.raises(RuntimeError) as e:
            _write_files(tmp_path, batches())
        assert e.value is failure
        # both workers stop at the first error, done or not with the first batch
        assert set(os.listdir(tmp_path)) <= {name for name, _ in files}
        assert threading.active_count() == threads

    def test_returns_after_the_helper_thread_has_finished(self, tmp_path, monkeypatch):
        # slow writes on the helper thread: a call that returned before
        # joining it would leave the thread running and its files unwritten
        threads = threading.active_count()
        write = fileio._write_and_replace

        def slow_off_the_calling_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.01)
            write(*args)

        monkeypatch.setattr(fileio, "_write_and_replace", slow_off_the_calling_thread)
        files = _files(20)
        _write_files(tmp_path, [files])
        assert threading.active_count() == threads
        assert sorted(os.listdir(tmp_path)) == [name for name, _ in files]

    def test_helper_that_cannot_start_raises_its_error_and_leaves_no_staging_entry(self, tmp_path, monkeypatch):
        # out of threads or memory: the error is the one start() raised, not
        # one from joining a thread that never ran
        threads = threading.active_count()
        failure = RuntimeError("can't start new thread")

        def no_start(self):
            raise failure

        monkeypatch.setattr(fileio.threading.Thread, "start", no_start)
        with pytest.raises(RuntimeError) as e:
            _write_files(tmp_path / "out", [_files(5)])
        assert e.value is failure
        assert os.listdir(tmp_path / "out") == []
        assert threading.active_count() == threads

    def test_frequent_thread_switches_lose_no_file(self, tmp_path):
        # the two workers share one queue and one error list; switching
        # threads every microsecond exposes a lost item
        files = _files(600, size=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            _write_files(tmp_path, (files[i : i + 40] for i in range(0, len(files), 40)))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(os.listdir(tmp_path)) == [name for name, _ in files]
        assert all((tmp_path / name).read_bytes() == data for name, data in files)


class TestEncodeImages:
    def test_each_image_encodes_as_save_image_writes_it(self, tmp_path, rng):
        for shape in [(3, 4, 5), (2, 3, 4, 3)]:
            stack = rng.uniform(-0.1, 1.1, size=shape)
            for i, data in enumerate(encode_images(stack)):
                save_image(tmp_path / "one", stack[i])
                assert (tmp_path / "one").read_bytes() == data

    def test_rejects_other_channel_counts(self):
        with pytest.raises(ValueError, match=r"got \(2, 2, 2\)"):
            encode_images(np.zeros((1, 2, 2, 2)))


class TestLoadImage:
    def test_header_comments_and_whitespace(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5# by hand\n3\t# width\n\r\n2 #\n255\n" + bytes(range(6)))
        assert np.array_equal(load_image(p), np.arange(6.0).reshape(2, 3) / 255.0)

    def test_long_comment_runs_fail_fast(self, tmp_path):
        # every '#' and space inside a comment could end a field separator;
        # a separator pattern that could split comments would backtrack
        # exponentially on this header
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5 3 2 " + b"# #\t" * 200 + b"x")
        with pytest.raises(FormatError, match="bad or truncated header"):
            load_image(p)

    def test_short_reads_are_not_the_end_of_the_file(self, tmp_path, monkeypatch):
        # a read may return fewer bytes than asked for before the end (a
        # signal, NFS, FUSE); a reader that took that for the end would
        # report a good file as missing pixels
        p = tmp_path / "short.pgm"
        p.write_bytes(b"P5 3 2 255\n" + bytes(range(6)))
        read = os.read
        monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, 4)))
        assert np.array_equal(load_image(p), np.arange(6.0).reshape(2, 3) / 255.0)


class TestTables:
    """The one CSV table reader behind banks, manifests and labels.csv."""

    def test_bank_bytes(self, tmp_path):
        save_bank(tmp_path / "b.csv", SampleBank(np.array([2, 0]), np.array([0.9, 1 / 3]), "plain"))
        assert (tmp_path / "b.csv").read_bytes() == b"sample_id,score,source\n2,0.900000000,plain\n0,0.333333333,plain\n"

    def test_cells_that_need_quotes_read_back_as_written(self, tmp_path):
        rows = [["a,b", 'say "x"', "two\nlines"], [1, 0.5, ""]]
        save_csv(tmp_path / "q.csv", ["c1", "c,2", "c3"], rows)
        assert load_csv(tmp_path / "q.csv") == (["c1", "c,2", "c3"], [[str(v) for v in row] for row in rows])

    def test_rows_go_through_the_parser_in_file_order(self, tmp_path):
        # a quoted field may hold a line break; a row's line is the one it starts on
        (tmp_path / "t.csv").write_bytes(b'a,b\n1,"x\ny"\n2,y\n')
        rows, lines = _load_table(tmp_path / "t.csv", ["a", "b"], lambda r: (int(r[0]), r[1]))
        assert rows == [(1, "x\ny"), (2, "y")] and list(lines) == [2, 4]

    @pytest.mark.parametrize(
        "data, problem",
        [
            (b"", "t.csv: empty CSV"),
            (b"a,c\n1,2\n", "t.csv: bad header ['a', 'c'], expected a,b"),
            (b"a,b\n1,2\n3\n", "t.csv line 3 ['3']: expected the 2 fields a,b"),
            (b"a,b\n1,2\n3,4,5\n", "t.csv line 3 ['3', '4', '5']: expected the 2 fields a,b"),
            (b"a,b\n1,2\nx,4\n", "t.csv line 3 ['x', '4']: invalid literal for int() with base 10: 'x'"),
            (b'a,b\n"1\n",2\nx,4\n', "t.csv line 4 ['x', '4']: invalid literal for int() with base 10: 'x'"),
            (b"a,b\n\xff\n", "t.csv: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"),
        ],
    )
    def test_refusals_name_the_file_and_line(self, tmp_path, data, problem):
        (tmp_path / "t.csv").write_bytes(data)
        with pytest.raises(FormatError) as e:
            _load_table(tmp_path / "t.csv", ["a", "b"], lambda r: (int(r[0]), int(r[1])))
        assert str(e.value) == f"{tmp_path / problem}"

    def test_line_numbers_cost_at_most_8_bytes_a_row(self, tmp_path):
        n = 20_000
        (tmp_path / "t.csv").write_text("a,b\n" + "".join(f"{i},{i}\n" for i in range(n)))
        _load_table(tmp_path / "t.csv", ["a", "b"], lambda r: None)  # warm the csv module up
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows, lines = _load_table(tmp_path / "t.csv", ["a", "b"], lambda r: None)
            del rows
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            if not tracing:
                tracemalloc.stop()
        assert list(lines[:2]) == [2, 3] and lines[-1] == n + 1
        # 8 bytes a row, plus a few KiB the csv reader keeps whatever the size
        assert held <= 8 * n + 8192, f"{held / n:.1f} bytes a row"

    def test_load_csv_reports_an_oversized_field_with_the_file(self, tmp_path):
        (tmp_path / "m.csv").write_bytes(b"run,value\nx," + b"9" * 131073 + b"\n")
        with pytest.raises(FormatError, match=r"m\.csv: field larger than field limit \(131072\)"):
            load_csv(tmp_path / "m.csv")


class TestPixelBankStack:
    def test_loads_one_stack_in_file_order(self, tmp_path, rng):
        bank = rng.uniform(size=(3, 4, 6)).astype(np.float32)
        save_pixel_bank(tmp_path / "pix", bank)
        back = load_pixel_bank(tmp_path / "pix")
        assert back.shape == (3, 4, 6) and back.dtype == np.float32 and back.flags.writeable
        assert np.array_equal(back, bank)

    def test_sidecars_of_different_shapes_raise_format_error(self, tmp_path):
        save_pixel_bank(tmp_path / "pix", [np.zeros((4, 6), np.float32), np.zeros((6, 4), np.float32)])
        with pytest.raises(FormatError, match=re.escape("000001.pcbl: shape (6, 4), but 000000.pcbl has shape (4, 6)")):
            load_pixel_bank(tmp_path / "pix")

    def test_a_directory_without_sidecars_raises_format_error(self, tmp_path):
        (tmp_path / "pix").mkdir()
        with pytest.raises(FormatError, match="pix: no sample files"):
            load_pixel_bank(tmp_path / "pix")

    def test_a_gap_in_the_ids_raises_format_error_naming_the_missing_sidecar(self, tmp_path, rng):
        # without the gap check frame 2 would load in frame 1's place
        save_pixel_bank(tmp_path / "pix", rng.uniform(size=(3, 2, 2)).astype(np.float32))
        (tmp_path / "pix" / "000001.pcbl").unlink()
        with pytest.raises(FormatError, match=r"pix: sidecar 000001\.pcbl is missing$"):
            load_pixel_bank(tmp_path / "pix")

    @pytest.mark.parametrize(
        "stray",
        ["zz_copy.pcbl", "0000001.pcbl", "1.pcbl", "\u0663" * 6 + ".pcbl"],
        ids=["other_name", "seven_digits", "unpadded", "non_ascii_digits"],
    )
    def test_a_sidecar_of_another_name_raises_format_error_naming_it(self, tmp_path, stray):
        save_pixel_bank(tmp_path / "pix", np.zeros((3, 2, 2), np.float32))
        (tmp_path / "pix" / stray).write_bytes((tmp_path / "pix" / "000000.pcbl").read_bytes())
        with pytest.raises(FormatError, match=f"pix: unexpected file {re.escape(stray)}: sidecars are named 000000"):
            load_pixel_bank(tmp_path / "pix")


# (file name, valid bytes written by this package, loader taking the file's path)


def _checkpoint(tmp_path):
    spec = ModelSpec("linear_softmax", (2, 2))
    save_checkpoint(tmp_path / "c.pckpt", spec, init_params(spec, 0), 3)
    return "c.pckpt", (tmp_path / "c.pckpt").read_bytes(), load_checkpoint


def _pixel_bank(tmp_path):
    save_pixel_bank(tmp_path / "pix", [np.full((2, 3), 0.5, dtype=np.float32)])
    return "pix/000000.pcbl", (tmp_path / "pix" / "000000.pcbl").read_bytes(), lambda p: load_pixel_bank(p.parent)


def _bank(tmp_path):
    bank = SampleBank(np.array([2, 0, 1]), np.array([0.9, 0.5, 0.25]), "plain")
    save_bank(tmp_path / "b.csv", bank)
    return "b.csv", (tmp_path / "b.csv").read_bytes(), load_bank


def _gray(tmp_path):
    save_image(tmp_path / "g.pgm", np.linspace(0, 1, 6).reshape(2, 3))
    return "g.pgm", (tmp_path / "g.pgm").read_bytes(), load_image


def _rgb(tmp_path):
    save_image(tmp_path / "c.ppm", np.linspace(0, 1, 12).reshape(2, 2, 3))
    return "c.ppm", (tmp_path / "c.ppm").read_bytes(), load_image


def _manifest(tmp_path):
    corrupt_dataset(np.linspace(0, 1, 6).reshape(2, 1, 3), ["fog"], [1, 2], 0, tmp_path / "corr")
    return "corr/manifest.csv", (tmp_path / "corr" / "manifest.csv").read_bytes(), lambda p: cli._read_manifest(p, 2)


def _labels(tmp_path):
    save_image_dataset(gen_blobs(2, 2, dim=3, seed=0), tmp_path / "data")
    return "data/labels.csv", (tmp_path / "data" / "labels.csv").read_bytes(), lambda p: load_image_dataset(p.parent)


FORMATS = {
    "checkpoint": _checkpoint,
    "pixel_bank": _pixel_bank,
    "bank": _bank,
    "pgm": _gray,
    "ppm": _rgb,
    "manifest": _manifest,
    "labels": _labels,
}
MAGIC = {
    "checkpoint": b"PCKPT1",
    "pixel_bank": b"PCBL",
    "bank": b"sample_id,score,source\n",
    "pgm": b"P5",
    "ppm": b"P6",
    "manifest": b"orig_id,kind,severity,path\n",
    "labels": b"id,label,path\n",
}


def _load_or_format_error(load, path):
    """Load ``path``; a FormatError is the one refusal allowed (a labels.csv
    row that names a missing image among them)."""
    try:
        load(path)
    except FormatError:
        pass


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_every_truncation_loads_or_raises_format_error(tmp_path, fmt):
    name, valid, load = FORMATS[fmt](tmp_path)
    path = tmp_path / name
    load(path)
    for cut in range(len(valid)):
        path.write_bytes(valid[:cut])
        _load_or_format_error(load, path)


@pytest.mark.parametrize(
    "fmt, data",
    [
        ("checkpoint", b"PCKPT1\x02"),
        ("pixel_bank", b"PCBL"),
        ("pgm", b"P5"),
        ("bank", b"sample_id,score,source\n1,0.5,pl\xffain\n"),
        ("bank", b"sample_id,score,source\n99999999999999999999999,0.5,plain\n"),
        ("bank", b"sample_id,score,source\n1,x,plain\n"),
        ("bank", b"sample_id,score,source\n1,inf,plain\n"),
        ("manifest", b"orig_id,kind,severity,path\n0,fog,1,\xff.pgm\n"),
        pytest.param("manifest", b"orig_id,kind,severity,path\n0,fog,1," + b"x" * 131073 + b"\n", id="manifest-oversized"),
        ("manifest", b"orig_id,kind,severity,path\n0,fog,1,a\x00.pgm\n"),
        ("labels", b"id,label,path\n0,0,\xff.pgm\n"),
        pytest.param("labels", b"id,label,path\n0,0," + b"x" * 131073 + b"\n", id="labels-oversized"),
        ("labels", b"id,label,path\n0,0,a\x00.pgm\n"),
    ],
)
def test_known_malformed_files_raise_format_error(tmp_path, fmt, data):
    name, _, load = FORMATS[fmt](tmp_path)
    (tmp_path / name).write_bytes(data)
    with pytest.raises(FormatError):
        load(tmp_path / name)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tail=st.binary(max_size=64))
def test_random_bytes_after_the_magic_load_or_raise_format_error(tmp_path, fmt, tail):
    name, _, load = FORMATS[fmt](tmp_path)
    (tmp_path / name).write_bytes(MAGIC[fmt] + tail)
    _load_or_format_error(load, tmp_path / name)
