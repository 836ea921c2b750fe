import multiprocessing
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import beamshadow as bs
from beamshadow import fileio, forked, link
from beamshadow.distortion import DistortionSpec, gen_distortion
from beamshadow.fileio import (
    DISTORTION_MAGIC,
    FIELD_MAGIC,
    FileFormatError,
    read_distortion_file,
    read_field_file,
    write_distortion_file,
    write_field_file,
    write_gain_map_csv,
)
from beamshadow.link import TheoremCheckResult
from test_experiment import needs_fork


def _read_table_loop(path, magic: str, columns: str):
    """``fileio._read_tables`` of one file without the fast path: the
    reference reader that the bulk path must agree with."""
    path = Path(path)
    with fileio._open_text(path) as fh:
        n, grid, label, rows = fileio._start_table(path, fh, magic, columns)
        values = np.empty((rows, 2))
        fileio._read_rows_loop(path, fh, n, grid, values)
    return n, grid, label, values


def _read_table(path, magic: str, columns: str):
    """The package's one reader on one file."""
    return fileio._read_tables([path], magic, columns)[0]


@pytest.fixture()
def small_field():
    grid = bs.make_grid(36.0, 40.0)  # 5 x 9 directions, fast to serialize
    return bs.synth_freespace_field(bs.ArrayConfig(n_antennas=2), grid)


@pytest.fixture()
def small_distortion(small_field):
    spec = DistortionSpec(mode="combined", phase_std_deg=25.0, amp_std_db=1.0, seed=5)
    return gen_distortion(spec, small_field.grid, 2)


def test_field_round_trip_is_bit_exact(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    back = read_field_file(path)
    assert back.grid == small_field.grid
    assert back.label == small_field.label
    assert np.array_equal(back.samples, small_field.samples)


def test_distortion_round_trip_is_bit_exact(tmp_path, small_distortion):
    path = tmp_path / "a.dist"
    write_distortion_file(small_distortion, path)
    back = read_distortion_file(path)
    assert back.grid == small_distortion.grid
    assert np.array_equal(back.amp, small_distortion.amp)
    assert np.array_equal(back.phase, small_distortion.phase)


def test_write_read_write_is_byte_identical(tmp_path, small_field):
    p1 = tmp_path / "a.field"
    p2 = tmp_path / "b.field"
    write_field_file(small_field, p1)
    write_field_file(read_field_file(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_label_survives_round_trip(tmp_path, small_field):
    from beamshadow.fields import AntennaFieldMap

    tagged = AntennaFieldMap(
        grid=small_field.grid, samples=small_field.samples, label="run 3, retry"
    )
    path = tmp_path / "a.field"
    write_field_file(tagged, path)
    assert read_field_file(path).label == "run 3, retry"


@pytest.mark.parametrize("label", ["a\nb", "a\rb"])
@pytest.mark.parametrize("kind", ["field", "distortion"])
def test_newline_in_label_is_rejected(tmp_path, small_field, small_distortion, kind, label):
    """Refused before the file is opened: an existing file keeps its bytes."""
    table, writer = {
        "field": (small_field, write_field_file),
        "distortion": (small_distortion, write_distortion_file),
    }[kind]
    path = tmp_path / "a.txt"
    path.write_bytes(b"previous\n")
    with pytest.raises(ValueError, match="newline"):
        writer(replace(table, label=label), path)
    assert path.read_bytes() == b"previous\n"


def test_wrong_magic_names_line_one(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("beamshadow-field", "quux-field")
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r":1:"):
        read_field_file(path)


def test_field_file_rejects_distortion_magic(tmp_path, small_distortion):
    path = tmp_path / "a.dist"
    write_distortion_file(small_distortion, path)
    with pytest.raises(FileFormatError, match="beamshadow-field"):
        read_field_file(path)


def test_malformed_data_row_names_its_line(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    lines[5] = "0,0.0"  # too few fields on file line 6
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r":6:"):
        read_field_file(path)


def test_unparseable_number_names_its_line(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    parts = lines[7].split(",")
    parts[3] = "zap"
    lines[7] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r":8:"):
        read_field_file(path)


def test_non_finite_value_is_rejected(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    parts = lines[3].split(",")
    parts[3] = "inf"
    lines[3] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="non-finite"):
        read_field_file(path)


def test_out_of_order_rows_are_rejected(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError):
        read_field_file(path)


def test_truncated_file_is_rejected(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(FileFormatError, match="row"):
        read_field_file(path)


def test_wrong_column_header_is_rejected(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    lines[1] = "antenna,theta_deg,phi_deg,rrr,im"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match=r":2:"):
        read_field_file(path)


def test_gain_map_csv_handles_nan_and_null(tmp_path):
    grid = bs.make_grid(90.0, 180.0)
    gain = np.array([[1.5, np.nan], [-np.inf, 0.0]])
    path = tmp_path / "g.csv"
    write_gain_map_csv(grid, gain, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta_deg,phi_deg,gain_db"
    assert lines[1] == "0.0,0.0,1.5"
    assert lines[2] == "0.0,180.0,nan"
    assert lines[3] == "90.0,0.0,-inf"
    assert lines[4] == "90.0,180.0,0.0"


def test_gain_map_csv_shape_check(tmp_path):
    grid = bs.make_grid(90.0, 180.0)
    with pytest.raises(ValueError, match="shape"):
        write_gain_map_csv(grid, np.zeros((3, 3)), tmp_path / "g.csv")


def test_values_with_many_digits_round_trip(tmp_path):
    """repr-format serialization must survive awkward doubles unchanged."""
    from beamshadow.fields import AntennaFieldMap

    grid = bs.make_grid(90.0, 180.0)
    rng = np.random.default_rng(0)
    samples = (rng.standard_normal((1, 2, 2)) * 1e-7 + 1j * rng.standard_normal((1, 2, 2)) * 1e7)
    fld = AntennaFieldMap(grid=grid, samples=samples, label="awkward")
    path = tmp_path / "a.field"
    write_field_file(fld, path)
    assert np.array_equal(read_field_file(path).samples, samples)


@needs_fork
def test_signed_zeros_round_trip(tmp_path):
    """-0.0 keeps its sign in both parts, through every reader path."""
    from beamshadow.fields import AntennaFieldMap

    grid = bs.make_grid(90.0, 90.0)  # 2 x 4 directions
    samples = np.array([[[-0.0 + 1j, complex(1.0, -0.0), complex(-0.0, -0.0), 0j]] * 2])
    path = tmp_path / "z.field"
    write_field_file(AntennaFieldMap(grid=grid, samples=samples), path)
    values = _read_table_loop(path, FIELD_MAGIC, fileio._FIELD_COLUMNS)[3]
    assert np.array_equal(np.signbit(values), np.signbit(samples.view(float).reshape(-1, 2)))
    with mock.patch.object(forked, "resolve_workers", lambda n=None: 2):
        read = [read_field_file(path), *fileio.read_field_files([path, path])]
    for back in read:
        assert np.array_equal(np.signbit(back.samples.real), np.signbit(samples.real))
        assert np.array_equal(np.signbit(back.samples.imag), np.signbit(samples.imag))


@needs_fork
def test_read_field_files_equals_the_serial_loop(tmp_path, small_field, monkeypatch):
    from beamshadow.fields import AntennaFieldMap

    paths = [tmp_path / f"{i}.field" for i in range(3)]
    for i, path in enumerate(paths):
        field = AntennaFieldMap(small_field.grid, small_field.samples * (i + 1j), f"f{i}")
        write_field_file(field, path)
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)
    got = fileio.read_field_files(paths)
    assert not multiprocessing.active_children()
    want = [_read_table_loop(p, FIELD_MAGIC, fileio._FIELD_COLUMNS) for p in paths]
    assert [(f.grid, f.label) for f in got] == [(grid, label) for _, grid, label, _ in want]
    assert [f.samples.tobytes() for f in got] == [values.tobytes() for *_, values in want]


def test_read_field_files_of_no_paths_is_empty():
    assert fileio.read_field_files([]) == []
    assert not multiprocessing.active_children()


@needs_fork
@pytest.mark.parametrize("bad, want", [({2: "header"}, 2), ({0: "row", 2: "header"}, 0)])
def test_read_field_files_errors_in_path_order_inside_a_child_range(
    tmp_path, small_field, monkeypatch, bad, want
):
    """3 files on 2 workers: the caller parses file 0 and a child files 1-2.
    A bad header in the child's range is raised, but the caller's bad row
    in file 0 comes first in path order and wins."""
    paths = [tmp_path / f"{i}.field" for i in range(3)]
    for path in paths:
        write_field_file(small_field, path)
    for i, kind in bad.items():
        lines = paths[i].read_text().splitlines(keepends=True)
        if kind == "header":
            lines[0] = lines[0].replace(FIELD_MAGIC, "beamshadow-feld v1")
        else:
            lines[5] = lines[5].replace(",", ",x", 1)
        paths[i].write_text("".join(lines))
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, 2))
    with pytest.raises(FileFormatError) as info:
        fileio.read_field_files(paths)
    assert str(info.value).startswith(f"{paths[want]}:")
    assert not multiprocessing.active_children()


@needs_fork
def test_each_read_parses_each_header_once(tmp_path, small_field, small_distortion, monkeypatch):
    """A spy, which the ranges' child processes also log to, sees one
    header parse per path per read: the rows are read without a second."""
    log, parse = tmp_path / "calls.log", fileio._parse_header

    def spy(path, *args):
        with log.open("a") as fh:
            fh.write(f"{path}\n")
        return parse(path, *args)

    monkeypatch.setattr(fileio, "_parse_header", spy)
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, 2))
    paths, dist = [tmp_path / f"{i}.field" for i in range(3)], tmp_path / "a.dist"
    for path in paths:
        write_field_file(small_field, path)
    write_distortion_file(small_distortion, dist)
    reads = [(read_field_file, paths[0], paths[:1]), (fileio.read_field_files, paths, paths),
             (read_distortion_file, dist, [dist])]
    for read, arg, want in reads:
        log.write_text("")
        read(arg)
        assert log.read_text().splitlines() == [str(p) for p in want]
    assert not multiprocessing.active_children()


def test_reading_one_file_loads_no_process_machinery(tmp_path, small_field, small_distortion):
    """One field file and one distortion file are read in the calling
    process: ``multiprocessing`` is never imported and nothing forks."""
    field, dist = tmp_path / "a.field", tmp_path / "a.dist"
    write_field_file(small_field, field)
    write_distortion_file(small_distortion, dist)
    code = (
        "import os, sys\n"
        "os.fork = lambda: sys.exit('forked')\n"
        "from beamshadow.fileio import read_distortion_file, read_field_file\n"
        f"read_field_file({str(field)!r}), read_distortion_file({str(dist)!r})\n"
        "print([m for m in sys.modules if m.partition('.')[0] == 'multiprocessing'])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(Path(bs.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@needs_fork
@pytest.mark.parametrize("magic", [FIELD_MAGIC, DISTORTION_MAGIC])
def test_a_header_promising_more_rows_than_the_file_holds_is_refused(tmp_path, monkeypatch,
                                                                     magic):
    """The size check names line 1, alone and in a two-file read, where the
    first bad path in path order wins."""
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, 2))
    good, big, bad = (tmp_path / name for name in ("good", "big", "bad"))
    good.write_text(_CANONICAL[magic])
    big.write_text(_CANONICAL[magic].replace("N=2,", "N=3000,", 1))
    bad.write_text(_CANONICAL[magic].replace("beamshadow-", "beamshadow-x", 1))
    size = big.stat().st_size
    promise = (f"{big}:1: header promises 135000 data rows (N=3000 x 5 x 9), "
               f"more than a {size}-byte file can hold")
    reader = read_field_file if magic == FIELD_MAGIC else read_distortion_file
    with pytest.raises(FileFormatError, match=f"^{re.escape(promise)}$"):
        reader(big)
    for paths, first in (([good, big], big), ([big, bad], big), ([bad, big], bad)):
        with pytest.raises(FileFormatError) as info:
            fileio._read_tables(paths, magic, _COLUMNS[magic])
        assert str(info.value).startswith(f"{first}:1: ")
        assert (str(info.value) == promise) == (first == big)
    assert not multiprocessing.active_children()


def test_nan_coordinate_is_rejected(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    for col in (1, 2):
        bad = list(lines)
        parts = bad[4].split(",")
        parts[col] = "nan"
        bad[4] = ",".join(parts)
        path.write_text("\n".join(bad) + "\n")
        with pytest.raises(FileFormatError, match=r":5: row out of order"):
            read_field_file(path)


@pytest.mark.parametrize("reader", [read_field_file, read_distortion_file])
def test_undecodable_bytes_raise_file_format_error(tmp_path, reader):
    path = tmp_path / "a.field"
    path.write_bytes(b"\xff")
    with pytest.raises(FileFormatError, match="UTF-8") as exc:
        reader(path)
    assert str(path) in str(exc.value)


def test_row_count_beyond_file_size_fails_before_allocating(tmp_path, small_field):
    import tracemalloc

    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    lines = path.read_text().splitlines()
    lines[0] = lines[0].replace("N=2,", "N=100000000,").replace("36.0", "1.0").replace("40.0", "1.0")
    path.write_text("\n".join(lines) + "\n")
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=r":1: header promises 6480000000000 data rows"):
            read_field_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# Writer-made texts of a 2-antenna 5 x 9 grid: 90 data rows per file.
def _canonical_texts():
    field = bs.synth_freespace_field(bs.ArrayConfig(n_antennas=2), bs.make_grid(36.0, 40.0))
    spec = DistortionSpec(mode="combined", phase_std_deg=25.0, amp_std_db=1.0, seed=5)
    dist = gen_distortion(spec, field.grid, 2)
    with tempfile.TemporaryDirectory() as tmp:
        write_field_file(field, Path(tmp) / "a.field")
        write_distortion_file(dist, Path(tmp) / "a.dist")
        return {
            FIELD_MAGIC: (Path(tmp) / "a.field").read_text(),
            DISTORTION_MAGIC: (Path(tmp) / "a.dist").read_text(),
        }


_CANONICAL = _canonical_texts()
_COLUMNS = {FIELD_MAGIC: fileio._FIELD_COLUMNS, DISTORTION_MAGIC: fileio._DISTORTION_COLUMNS}


def _respell(token: str, how: int) -> str:
    """Another spelling of the number in token, which float() reads the same."""
    if how == 0 and token.endswith(".0"):
        return token[:-2]  # 40.0 -> 40
    if how == 1:
        return "+" + token
    if how == 2 and len(token) > 1 and token[0].isdigit() and token[1].isdigit():
        return token[0] + "_" + token[1:]  # 40.0 -> 4_0.0
    return " " + token + " "


@st.composite
def _mutated_text(draw):
    magic = draw(st.sampled_from(sorted(_CANONICAL)))
    lines = _CANONICAL[magic].splitlines(keepends=True)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.integers(0, 7))
        if op == 0:  # edit, insert or drop one character
            line = lines[i]
            j = draw(st.integers(0, len(line)))
            ch = draw(st.sampled_from(list("0123456789.,-+e_n \r\nx") + ["", "é"]))
            cut = draw(st.integers(0, 1))
            lines[i] = line[:j] + ch + line[j + cut:]
        elif op == 1:
            k = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[k] = lines[k], lines[i]
        elif op == 2:
            del lines[i]
        elif op == 3:
            lines.insert(i, lines[i])
        elif op == 4:
            lines[i] = lines[i].replace("\n", "\r\n")
        elif op == 5 and i + 1 < len(lines):  # move a line break one field left
            head, _, last = lines[i].rpartition(",")
            lines[i : i + 2] = [head + "\n", last.rstrip("\n") + "," + lines[i + 1]]
        elif op == 6:
            lines.append(draw(st.sampled_from(["\n", "x", lines[-1]])))
        else:
            parts = lines[i].rstrip("\n").split(",")
            col = draw(st.integers(0, len(parts) - 1))
            parts[col] = _respell(parts[col], draw(st.integers(0, 3)))
            lines[i] = ",".join(parts) + "\n"
    return magic, "".join(lines)


def _outcome(reader, path, magic):
    try:
        n, grid, label, values = reader(path, magic, _COLUMNS[magic])
    except FileFormatError as exc:
        return str(exc)
    return n, grid, label, values.tobytes()


def _edited(magic: str, edit) -> tuple[str, str]:
    lines = _CANONICAL[magic].splitlines(keepends=True)
    edit(lines)
    return magic, "".join(lines)


def _shift_break(lines):
    head, _, last = lines[2].rpartition(",")
    lines[2:4] = [head + "\n", last.rstrip("\n") + "," + lines[3]]


@given(case=_mutated_text(), chunk=st.sampled_from([1, 7, 45, 2048]))
@example(case=_edited(FIELD_MAGIC, _shift_break), chunk=2048)  # a short row, then a long one
@example(case=_edited(FIELD_MAGIC, lambda lines: lines.append(lines[-1])), chunk=2048)
@example(case=_edited(DISTORTION_MAGIC, lambda lines: lines.append("\n")), chunk=7)
def test_fast_reader_agrees_with_the_line_loop(case, chunk):
    """Bulk parsing changes no result: same arrays bit for bit, or same error."""
    magic, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        with mock.patch.object(fileio, "_CHUNK_ROWS", chunk):
            fast = _outcome(_read_table, path, magic)
        assert fast == _outcome(_read_table_loop, path, magic)


@pytest.mark.parametrize("chunk", [7, 45, 2048])
@pytest.mark.parametrize("magic", sorted(_CANONICAL))
def test_writer_made_rows_take_the_fast_path(tmp_path, magic, chunk):
    path = tmp_path / "a.txt"
    path.write_text(_CANONICAL[magic])
    with mock.patch.object(fileio, "_CHUNK_ROWS", chunk), path.open(newline="") as fh:
        n, grid, _, rows = fileio._start_table(path, fh, magic, _COLUMNS[magic])
        values = np.empty((rows, 2))
        assert fileio._read_rows_fast(fh, n, grid, values)
    assert values.tobytes() == _read_table_loop(path, magic, _COLUMNS[magic])[3].tobytes()


def test_other_spellings_are_read_by_the_loop(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    text = path.read_text().replace("\n0,0.0,0.0,", "\n0,0,+0.0,", 1).replace("\n", "\r\n")
    path.write_text(text.replace("\r\n", "\n", 2), newline="")
    assert np.array_equal(read_field_file(path).samples, small_field.samples)
    with path.open(newline="") as fh:
        n, grid, _, rows = fileio._start_table(path, fh, FIELD_MAGIC, fileio._FIELD_COLUMNS)
        assert not fileio._read_rows_fast(fh, n, grid, np.empty((rows, 2)))


@needs_fork
def test_crlf_files_read_back_bit_identical(tmp_path, small_field, small_distortion, monkeypatch):
    """Files with every line, the header's included, ended by ``\\r\\n`` read
    back bit for bit with their labels, alone and two at a time."""
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: min(n, 2))
    field, dist = tmp_path / "a.field", tmp_path / "a.dist"
    write_field_file(small_field, field)
    write_distortion_file(small_distortion, dist)
    for path in (field, dist):
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    for back in (read_field_file(field), *fileio.read_field_files([field, field])):
        assert (back.grid, back.label) == (small_field.grid, "free")
        assert back.samples.tobytes() == small_field.samples.tobytes()
    want = np.column_stack([small_distortion.amp.reshape(-1), small_distortion.phase.reshape(-1)])
    back = read_distortion_file(dist)
    assert (back.grid, back.label) == (small_distortion.grid, small_distortion.label)
    assert np.column_stack([back.amp.reshape(-1), back.phase.reshape(-1)]).tobytes() == want.tobytes()
    for _, grid, label, values in fileio._read_tables([dist, dist], DISTORTION_MAGIC,
                                                      fileio._DISTORTION_COLUMNS):
        assert (grid, label) == (small_distortion.grid, small_distortion.label)
        assert values.tobytes() == want.tobytes()
    assert not multiprocessing.active_children()


@given(
    data=st.binary(max_size=300),
    at=st.integers(0, 600),
    magic=st.sampled_from(sorted(_CANONICAL)),
)
def test_readers_raise_only_file_format_error(data, at, magic):
    """Arbitrary bytes, alone or spliced into a valid file, never escape as another error."""
    canonical = _CANONICAL[magic].encode("utf-8")
    with tempfile.TemporaryDirectory() as tmp:
        for blob in (data, canonical[:at] + data + canonical[at:]):
            path = Path(tmp) / "x.txt"
            path.write_bytes(blob)
            for reader in (read_field_file, read_distortion_file):
                try:
                    reader(path)
                except FileFormatError:
                    pass


def _trials_reference(res) -> str:
    """trials.csv as a per-row ``repr`` loop writes it."""
    want = ["trial,B,var_blockage,lower_bound,delta_achieved,margin"]
    for t in range(res.n_trials):
        for j, b in enumerate(res.b_values):
            values = (res.var_blockage[t], res.lower_bound[t, j], res.delta_achieved[t, j],
                      res.margin[t, j])
            want.append(f"{t},{b}," + ",".join(repr(float(v)) for v in values))
    return "\n".join(want) + "\n"


def _write_in_ranges(result, parts: int, path) -> None:
    """Publish ``result`` as its trials CSV through ``fileio.published``, its
    trials formatted in ``parts`` ranges as ``forked.split`` cuts them."""
    bounds = [result.n_trials * i // parts for i in range(parts + 1)]
    with fileio.published(path, False) as partial, partial.open("wb") as fh:
        fh.write(fileio.TRIALS_CSV_HEADER)
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            columns = (result.var_blockage, result.lower_bound, result.delta_achieved,
                       result.margin)
            fh.writelines(fileio.trials_csv_rows(lo, result.b_values,
                                                 *(c[lo:hi] for c in columns)))


@pytest.mark.parametrize("workers, chunk_rows", [(1, 2048), (2, 5), (3, 4)])
def test_trials_csv_matches_a_per_row_repr_loop(tmp_path, monkeypatch, workers, chunk_rows):
    """The same bytes for any split of the trials and any chunk size."""
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: workers)
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "trials.csv"
    res = bs.theorem_trials(12, b_values=(1, 3), seed=3, n_antennas=2, out=path)
    assert not multiprocessing.active_children()
    assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]
    assert path.read_text() == _trials_reference(res)
    res.var_blockage[2] = 0.0  # the variance of equal magnitudes
    res.margin[4, 1] = -0.0  # a signed zero keeps its sign
    # each trial's variance is formatted once for all its rows: repr's sign,
    # subnormal and exponent spellings
    rows = np.arange(8.0).reshape(4, 2)
    edges = TheoremCheckResult(
        n_trials=4, b_values=(1, 3), n_antennas=2, seed=0,
        var_blockage=np.array([-0.0, 5e-324, 1e16, 1e-05]),
        lower_bound=rows, delta_achieved=rows + 0.5, margin=rows / 3,
    )  # fmt: skip
    for result in (res, edges):
        _write_in_ranges(result, workers, path)
        assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]
        assert path.read_text() == _trials_reference(result)


@pytest.mark.parametrize("chunk_rows", [1, 7])
@pytest.mark.parametrize("n_trials", [1, 2, 10001])
def test_trials_csv_bytes_for_any_trial_count(tmp_path, monkeypatch, n_trials, chunk_rows):
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", chunk_rows)
    path = tmp_path / "trials.csv"
    res = bs.theorem_trials(n_trials, b_values=(1, 2, 3), seed=11, n_antennas=4, out=path)
    assert path.read_bytes() == _trials_reference(res).encode("ascii")
    last = n_trials - 1
    res.var_blockage[last] = 5e-324
    res.lower_bound[0, :] = (-0.0, -1.7976931348623157e308, 2.2250738585072014e-308 / 3)
    res.margin[last, -1] = 1.7976931348623157e308
    _write_in_ranges(res, 1, path)
    assert path.read_bytes() == _trials_reference(res).encode("ascii")


def _planted_in_trials_rows(monkeypatch, in_child: bool, action):
    """Make the audit's trials_csv_rows call action() after its first chunk,
    in a child process or in this one, with the trials split in two."""
    real, parent = fileio.trials_csv_rows, os.getpid()

    def rows(*args):
        chunks = real(*args)
        yield next(chunks)
        if (os.getpid() != parent) == in_child:
            action()
        yield from chunks

    monkeypatch.setattr(link, "trials_csv_rows", rows)
    monkeypatch.setattr(fileio, "_CHUNK_ROWS", 5)
    monkeypatch.setattr(forked, "resolve_workers", lambda n=None: 2)


def _raise_planted():
    raise FloatingPointError("planted")


@needs_fork
@pytest.mark.parametrize(
    "in_child, action, error, message",
    [(True, _raise_planted, FloatingPointError, "planted"),
     (True, lambda: os._exit(3), RuntimeError, "trials 20-39: audit process exited with code 3"),
     (False, _raise_planted, FloatingPointError, "planted")],
)
def test_failed_trials_write_leaves_no_file(tmp_path, monkeypatch, in_child, action, error,
                                            message):
    """A write that fails midway, in a child or here, leaves the old file
    as it was and no temporary file beside it."""
    audit = {"n_trials": 40, "b_values": (1, 2), "seed": 1, "n_antennas": 4}
    path = tmp_path / "trials.csv"
    path.write_bytes(b"previous\n")
    _planted_in_trials_rows(monkeypatch, in_child, action)
    with pytest.raises(error, match=message):
        bs.theorem_trials(**audit, out=path)
    assert not multiprocessing.active_children()
    assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]
    assert path.read_bytes() == b"previous\n"
    monkeypatch.undo()
    bs.theorem_trials(**audit, out=path)  # and a later write replaces it
    assert path.read_bytes().startswith(b"trial,B,")
    assert [p.name for p in tmp_path.iterdir()] == ["trials.csv"]


def test_cdf_csv_matches_a_per_row_repr_loop(tmp_path):
    summary = bs.CdfSummary(
        n_samples=3, mean=0.0, std=0.0, minimum=-np.inf, maximum=50.0,
        percentiles=((10.0, -np.inf), (50.0, np.nan), (90.0, 50.0), (99.5, np.float64(-0.125))),
    )
    path = tmp_path / "cdf.csv"
    fileio.write_cdf_csv(summary, path)
    want = "percentile,value_db\n"
    for p, v in summary.percentiles:
        want += f"{repr(float(p))},{repr(float(v))}\n"
    assert path.read_text() == want
    assert path.read_text().splitlines()[1:3] == ["10.0,-inf", "50.0,nan"]


def test_coverage_csv_matches_a_per_row_repr_loop(tmp_path):
    rows = [
        bs.CoverageRow(0, 50.0, -np.inf, np.nan),
        bs.CoverageRow(1, np.float64(11.25), np.float64(-3.5), 0.0),
    ]
    path = tmp_path / "coverage.csv"
    fileio.write_coverage_csv(rows, path)
    want = "antenna,max_free_gain_db,max_blocked_gain_db,roi_area_pct\n"
    for r in rows:
        values = (r.max_free_gain_db, r.max_blocked_gain_db, r.roi_area_pct)
        want += f"{r.antenna}," + ",".join(repr(float(v)) for v in values) + "\n"
    assert path.read_text() == want
    assert path.read_text().splitlines()[1] == "0,50.0,-inf,nan"


# Doubles a writer must spell exactly: signed zero, subnormals, the extremes.
EDGE_VALUES = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.sampled_from(EDGE_VALUES) | st.floats(allow_nan=False, allow_infinity=False)
AMPLITUDES = st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]) | st.floats(
    0.0, allow_infinity=False)
PHASES = st.sampled_from([-0.0, 5e-324]) | st.floats(0.0, 2 * np.pi, exclude_max=True)
GAINS = FINITE | st.sampled_from([np.nan, np.inf, -np.inf])
SMALL_GRIDS = [
    bs.make_grid(90.0, 180.0),
    bs.make_grid(45.0, 120.0),
    bs.make_grid(7.5, 22.5, (30.0, 52.5), (100.0, 167.5)),
    bs.make_grid(0.1, 0.3, (0.2, 0.5), (1.0, 1.9)),
]
LABELS = st.text(st.characters(whitelist_categories=("L", "N", "P", "S", "Zs")), max_size=6)


def _grid_rows(grid, per_cell, n_antennas=None) -> str:
    """Data rows as a per-row loop writes them: ``[a,]theta,phi,<repr>...``."""
    rows = []
    for a in range(n_antennas or 1):
        lead = f"{a}," if n_antennas else ""
        for it, th in enumerate(grid.thetas.tolist()):
            for ip, ph in enumerate(grid.phis.tolist()):
                cells = per_cell(a, it, ip)
                rows.append(f"{lead}{th!r},{ph!r}," + ",".join(repr(float(x)) for x in cells))
    return "".join(row + "\n" for row in rows)


def _read_in_bulk(path: Path, magic: str, columns: str) -> np.ndarray:
    """The rows as the fast path parses them; it must accept the file."""
    with path.open(encoding="utf-8", newline="") as fh:
        n, grid, _, rows = fileio._start_table(path, fh, magic, columns)
        values = np.empty((rows, 2))
        assert fileio._read_rows_fast(fh, n, grid, values)
    return values


@given(data=st.data(), grid=st.sampled_from(SMALL_GRIDS), n=st.integers(1, 3),
       label=LABELS, chunk=st.sampled_from([1, 7]))
def test_writers_match_a_per_row_repr_loop(data, grid, n, label, chunk):
    """Every writer's bytes equal a per-row ``repr`` loop's for any chunk
    size, and the readers' bulk path reads them back bit for bit."""
    from beamshadow.fields import AntennaFieldMap

    shape = (n, *grid.shape)
    re, im = (data.draw(arrays(np.float64, shape, elements=FINITE)) for _ in range(2))
    samples = np.empty(shape, complex)
    samples.real, samples.imag = re, im  # re + 1j * im could flip a zero's sign
    field = AntennaFieldMap(grid=grid, samples=samples, label=label)
    amp = data.draw(arrays(np.float64, shape, elements=AMPLITUDES))
    phase = data.draw(arrays(np.float64, shape, elements=PHASES))
    dist = bs.DistortionField(grid=grid, amp=amp, phase=phase, label=label)
    gain = data.draw(arrays(np.float64, grid.shape, elements=GAINS))

    def header(magic, columns):
        return f"{fileio._header_line(magic, n, grid, label)}\n{columns}\n".encode("utf-8")

    want = {
        "a.field": header(FIELD_MAGIC, fileio._FIELD_COLUMNS) + _grid_rows(
            grid, lambda a, it, ip: (re[a, it, ip], im[a, it, ip]), n).encode("ascii"),
        "a.dist": header(DISTORTION_MAGIC, fileio._DISTORTION_COLUMNS) + _grid_rows(
            grid, lambda a, it, ip: (amp[a, it, ip], phase[a, it, ip]), n).encode("ascii"),
        "gain.csv": b"theta_deg,phi_deg,gain_db\n" + _grid_rows(
            grid, lambda a, it, ip: (gain[it, ip],)).encode("ascii"),
    }
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(fileio, "_CHUNK_ROWS", chunk):
        tmp = Path(tmp)
        write_field_file(field, tmp / "a.field")
        write_distortion_file(dist, tmp / "a.dist")
        write_gain_map_csv(grid, gain, tmp / "gain.csv")
        assert {name: (tmp / name).read_bytes() for name in want} == want

        bulk = _read_in_bulk(tmp / "a.field", FIELD_MAGIC, fileio._FIELD_COLUMNS)
        assert bulk.tobytes() == np.stack([re.ravel(), im.ravel()], axis=1).tobytes()
        back = read_field_file(tmp / "a.field")
        assert (back.grid, back.label) == (grid, label)
        assert back.samples.tobytes() == field.samples.tobytes()

        bulk = _read_in_bulk(tmp / "a.dist", DISTORTION_MAGIC, fileio._DISTORTION_COLUMNS)
        assert bulk.tobytes() == np.stack([amp.ravel(), phase.ravel()], axis=1).tobytes()
        back = read_distortion_file(tmp / "a.dist")
        assert (back.grid, back.label) == (grid, label)
        assert (back.amp.tobytes(), back.phase.tobytes()) == (amp.tobytes(), phase.tobytes())
