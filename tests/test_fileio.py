import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import beamshadow as bs
from beamshadow import fileio
from beamshadow.codebook import directional_codebook
from beamshadow.distortion import DistortionSpec, gen_distortion
from beamshadow.fileio import (
    DISTORTION_MAGIC,
    FIELD_MAGIC,
    FileFormatError,
    read_distortion_file,
    read_field_file,
    write_codebook_csv,
    write_distortion_file,
    write_field_file,
    write_gain_map_csv,
)


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


def test_newline_in_label_is_rejected(tmp_path, small_field):
    from beamshadow.fields import AntennaFieldMap

    bad = AntennaFieldMap(grid=small_field.grid, samples=small_field.samples, label="a\nb")
    with pytest.raises(ValueError, match="newline"):
        write_field_file(bad, tmp_path / "a.field")


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


def test_codebook_csv_layout(tmp_path):
    cbk = directional_codebook(2, 2)
    path = tmp_path / "cb.csv"
    write_codebook_csv(cbk, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "entry,antenna,re,im,tag"
    assert len(lines) == 1 + 2 * 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == pytest.approx(1.0 / np.sqrt(2.0))


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
        n, grid, label, values = reader(path, magic, _COLUMNS[magic], 2)
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
            fast = _outcome(fileio._read_table, path, magic)
        assert fast == _outcome(fileio._read_table_loop, path, magic)


@pytest.mark.parametrize("chunk", [7, 45, 2048])
@pytest.mark.parametrize("magic", sorted(_CANONICAL))
def test_writer_made_rows_take_the_fast_path(tmp_path, magic, chunk):
    path = tmp_path / "a.txt"
    path.write_text(_CANONICAL[magic])
    with mock.patch.object(fileio, "_CHUNK_ROWS", chunk), path.open(newline="") as fh:
        n, grid, _, values = fileio._start_table(path, fh, magic, _COLUMNS[magic], 2)
        assert fileio._read_rows_fast(fh, n, grid, values)
    assert values.tobytes() == fileio._read_table_loop(path, magic, _COLUMNS[magic], 2)[3].tobytes()


def test_other_spellings_are_read_by_the_loop(tmp_path, small_field):
    path = tmp_path / "a.field"
    write_field_file(small_field, path)
    text = path.read_text().replace("\n0,0.0,0.0,", "\n0,0,+0.0,", 1).replace("\n", "\r\n")
    path.write_text(text.replace("\r\n", "\n", 2), newline="")
    assert np.array_equal(read_field_file(path).samples, small_field.samples)
    with path.open(newline="") as fh:
        n, grid, _, values = fileio._start_table(path, fh, FIELD_MAGIC, fileio._FIELD_COLUMNS, 2)
        assert not fileio._read_rows_fast(fh, n, grid, values)


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
