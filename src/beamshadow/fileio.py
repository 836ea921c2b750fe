"""On-disk formats: field maps, distortion screens, and the CSV tables.

Field and distortion files are CSV with a one-line typed header::

    beamshadow-field v1, N=<n>, theta=<start>:<step>:<end>, phi=<start>:<step>:<end>, label=<tag>
    antenna,theta_deg,phi_deg,re,im
    0,0.0,0.0,0.1778...,0.0
    ...

Rows are antenna-major, then theta-major, phi-minor, covering every grid
cell exactly once.  Floats are written with ``repr`` so a read/write round
trip reproduces every sample bit for bit.  Distortion files use the magic
``beamshadow-distortion v1`` and columns ``antenna,theta_deg,phi_deg,amp,
phase_rad``.  Readers validate ordering, row count, and finiteness and
report the offending line on failure.

Files are read as UTF-8.  Rows exactly as the writers emit them take a bulk
path that parses a few thousand rows per step.  Any other valid spelling
(``0`` for ``0.0``, ``\r\n`` endings, padding) is still accepted, at
per-line speed, by the reference loop that also names the first bad
``path:line``; every reader error, undecodable bytes included, is a
``FileFormatError``.

``read_field_files`` reads several field files at once, since the ``float``
parse that bounds a read cannot go faster in one process.  This process
parses every header and allocates each file's samples in an anonymous
shared mapping; the files are then split by ``forked.split``, and each range
parses its rows straight into the mappings and sends back only "done" or
its exception.  Errors surface in path order, as a serial loop would raise
them.

Every table, the field and distortion data rows and the CSV tables alike,
is formatted by one chunk generator, ``_table_chunks``: a few thousand rows
at a time, each value as ``repr`` of a Python float, and written to a binary
handle after the header, which is encoded as UTF-8, the readers' encoding.
A header is built, and a bad label refused, before the file is opened.

``trials_csv_rows`` formats a range of ``link.theorem_trials`` rows in the
process that audited it; ``open_trials_csv`` writes them to a hidden sibling
file, renamed onto the path only when every range is written.
"""

from __future__ import annotations

import os
import re
from contextlib import contextmanager
from itertools import islice, product
from pathlib import Path

import numpy as np

from .distortion import DistortionField
from .fields import AntennaFieldMap
from . import forked
from .sphere import SphericalGrid, make_grid

__all__ = [
    "FileFormatError",
    "write_field_file",
    "read_field_file",
    "read_field_files",
    "write_distortion_file",
    "read_distortion_file",
    "write_gain_map_csv",
    "write_cdf_csv",
    "write_coverage_csv",
    "trials_csv_rows",
    "open_trials_csv",
]

FIELD_MAGIC = "beamshadow-field v1"
DISTORTION_MAGIC = "beamshadow-distortion v1"
_FIELD_COLUMNS = "antenna,theta_deg,phi_deg,re,im"
_DISTORTION_COLUMNS = "antenna,theta_deg,phi_deg,amp,phase_rad"

_HEADER_RE = re.compile(
    r"^(?P<magic>beamshadow-[a-z]+ v1), N=(?P<n>\d+), "
    r"theta=(?P<t0>[^:,]+):(?P<ts>[^:,]+):(?P<t1>[^:,]+), "
    r"phi=(?P<p0>[^:,]+):(?P<ps>[^:,]+):(?P<p1>[^:,]+), "
    r"label=(?P<label>.*)$"
)


# Data rows the fast reader parses, and every writer formats, per bulk
# step.  Bounded so that one chunk's token list stays a few hundred kB: a
# fresh process running a serial 1-degree `metrics` peaked at 44 MB RSS with
# 2048-row chunks and at 62 MB with 32768-row ones.
_CHUNK_ROWS = 2048
# The shortest data row the per-line reader accepts, "0,0,0,0,0\n".
_MIN_ROW_BYTES = 10


class FileFormatError(ValueError):
    """Raised when a beamshadow file is malformed; messages carry path:line."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _axis_tokens(grid: SphericalGrid) -> tuple[list[str], list[str]]:
    """The theta and phi strings the writers emit, which the fast reader expects."""
    return [_fmt(t) for t in grid.thetas], [_fmt(p) for p in grid.phis]


def _header_line(magic: str, n_antennas: int, grid: SphericalGrid, label: str) -> str:
    if "\n" in label or "\r" in label:
        raise ValueError("label must not contain newlines")
    return (
        f"{magic}, N={n_antennas}, "
        f"theta={_fmt(grid.theta_start)}:{_fmt(grid.theta_step)}:{_fmt(grid.theta_end)}, "
        f"phi={_fmt(grid.phi_start)}:{_fmt(grid.phi_step)}:{_fmt(grid.phi_end)}, "
        f"label={label}"
    )


def _table_chunks(lead, columns):
    """Data rows ``<prefix>,<value>,...`` as ASCII bytes, at most
    ``_CHUNK_ROWS`` rows per chunk.  The row prefixes are the product of the
    token lists in ``lead`` joined by commas, in order; row i's values are
    ``column[i]`` of each column, written as ``repr`` of a Python float."""
    prefixes = map(",".join, product(*lead))
    cells = ",%r" * len(columns) + "\n"
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        block = np.column_stack([column[start : start + _CHUNK_ROWS] for column in columns])
        rows = cells.join(islice(prefixes, len(block))) + cells
        yield (rows % tuple(block.ravel().tolist())).encode("ascii")


def _write_table(path, header: str, lead, columns) -> None:
    """Write the UTF-8 header, then ``_table_chunks(lead, columns)``."""
    with Path(path).open("wb") as fh:
        fh.write(header.encode("utf-8"))
        fh.writelines(_table_chunks(lead, columns))


def write_field_file(field: AntennaFieldMap, path) -> None:
    """Write a field map in the beamshadow-field v1 format."""
    header = _header_line(FIELD_MAGIC, field.n_antennas, field.grid, field.label)
    samples = field.samples.reshape(-1)
    lead = (map(str, range(field.n_antennas)), *_axis_tokens(field.grid))
    _write_table(path, f"{header}\n{_FIELD_COLUMNS}\n", lead, (samples.real, samples.imag))


def write_distortion_file(distortion: DistortionField, path) -> None:
    """Write a distortion field in the beamshadow-distortion v1 format."""
    n = distortion.n_antennas
    header = _header_line(DISTORTION_MAGIC, n, distortion.grid, distortion.label)
    lead = (map(str, range(n)), *_axis_tokens(distortion.grid))
    columns = (distortion.amp.reshape(-1), distortion.phase.reshape(-1))
    _write_table(path, f"{header}\n{_DISTORTION_COLUMNS}\n", lead, columns)


def _parse_header(path: Path, line: str, magic: str, columns: str, second: str):
    m = _HEADER_RE.match(line.rstrip("\n"))
    if m is None or m.group("magic") != magic:
        raise FileFormatError(f"{path}:1: not a '{magic}' file")
    try:
        n = int(m.group("n"))
        grid = make_grid(
            float(m.group("ts")),
            float(m.group("ps")),
            (float(m.group("t0")), float(m.group("t1"))),
            (float(m.group("p0")), float(m.group("p1"))),
        )
    except (ValueError, OverflowError) as exc:
        raise FileFormatError(f"{path}:1: bad header: {exc}") from exc
    if n < 1:
        raise FileFormatError(f"{path}:1: antenna count must be >= 1")
    if second.rstrip("\n") != columns:
        raise FileFormatError(f"{path}:2: expected column header '{columns}'")
    return n, grid, m.group("label")


@contextmanager
def _open_text(path: Path):
    """Open a file for reading as UTF-8; undecodable bytes become FileFormatError."""
    try:
        with path.open(encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"{path}: not UTF-8 text: {exc.reason}") from exc


def _start_table(path: Path, fh, magic: str, columns: str):
    """Parse the two header lines; returns (n, grid, label, data rows)."""
    header = fh.readline()
    if not header:
        raise FileFormatError(f"{path}:1: empty file")
    n, grid, label = _parse_header(path, header, magic, columns, fh.readline())
    n_theta, n_phi = grid.shape
    total = n * n_theta * n_phi
    size = path.stat().st_size
    if total * _MIN_ROW_BYTES > size:
        raise FileFormatError(
            f"{path}:1: header promises {total} data rows (N={n} x {n_theta} x {n_phi}), "
            f"more than a {size}-byte file can hold"
        )
    return n, grid, label, total


def _read_rows_fast(fh, n: int, grid: SphericalGrid, values: np.ndarray) -> bool:
    """Parse writer-made data rows in bulk; False means "use the per-line loop".

    A chunk is accepted only when every line holds exactly the expected number
    of fields and ends in a newline, and its antenna, theta and phi fields are
    the very strings the writer emits.  Such a line passes every check of the
    loop, and each value goes through the same ``float`` parse, so the result
    is bit-identical to the loop's; anything else returns False.
    """
    n_theta, n_phi = grid.shape
    per_antenna = n_theta * n_phi
    width = 3 + values.shape[1]
    theta_s, phi_s = _axis_tokens(grid)
    theta_col = [t for t in theta_s for _ in range(n_phi)]
    phi_col = phi_s * n_theta
    row = 0
    try:
        for a in range(n):
            antenna = [str(a)] * _CHUNK_ROWS
            for start in range(0, per_antenna, _CHUNK_ROWS):
                stop = min(start + _CHUNK_ROWS, per_antenna)
                k = stop - start
                fields = ",".join(islice(fh, k)).split(",")
                # A line can hold a newline only at its end, so k newlines in
                # the k last-field slots put every line break where a row ends.
                if (
                    len(fields) != width * k
                    or "".join(fields[width - 1 :: width]).count("\n") != k
                    or fields[0::width] != antenna[:k]
                    or fields[1::width] != theta_col[start:stop]
                    or fields[2::width] != phi_col[start:stop]
                ):
                    return False
                block = values[row : row + k]
                for j in range(width - 3):
                    block[:, j] = np.fromiter(map(float, fields[3 + j :: width]), float, k)
                if not np.isfinite(block).all():
                    return False
                row += k
        return not fh.read(1)
    except ValueError:  # a value float() rejects, or undecodable bytes
        return False


def _read_rows_loop(path: Path, fh, n: int, grid: SphericalGrid, values: np.ndarray) -> None:
    """Parse data rows one line at a time, naming the first bad ``path:line``."""
    n_theta, n_phi = grid.shape
    total, n_values = values.shape
    thetas, phis = grid.thetas, grid.phis
    count = 0
    for lineno, line in enumerate(fh, start=3):
        line = line.strip()
        if not line:
            raise FileFormatError(f"{path}:{lineno}: blank line inside data")
        if count >= total:
            raise FileFormatError(
                f"{path}:{lineno}: more data rows than the header's "
                f"{total} (N={n} x {n_theta} x {n_phi})"
            )
        parts = line.split(",")
        if len(parts) != 3 + n_values:
            raise FileFormatError(
                f"{path}:{lineno}: expected {3 + n_values} fields, got {len(parts)}"
            )
        try:
            a = int(parts[0])
            th = float(parts[1])
            ph = float(parts[2])
            vals = [float(v) for v in parts[3:]]
        except ValueError as exc:
            raise FileFormatError(f"{path}:{lineno}: {exc}") from exc
        ia, rem = divmod(count, n_theta * n_phi)
        it, ip = divmod(rem, n_phi)
        # Written as "not <=" so that a NaN coordinate counts as out of order.
        if a != ia or not abs(th - thetas[it]) <= 1e-9 or not abs(ph - phis[ip]) <= 1e-9:
            raise FileFormatError(
                f"{path}:{lineno}: row out of order: expected antenna {ia}, "
                f"theta {thetas[it]}, phi {phis[ip]}"
            )
        for v in vals:
            if not np.isfinite(v):
                raise FileFormatError(f"{path}:{lineno}: non-finite value {v}")
        values[count] = vals
        count += 1
    if count != total:
        raise FileFormatError(
            f"{path}: expected {total} data rows (N={n} x {n_theta} x {n_phi}), "
            f"found {count}"
        )


def _read_table(path, magic: str, columns: str, n_values: int, out: np.ndarray | None = None):
    """Parse header plus ordered data rows; returns (n, grid, label, values).

    values is a C-ordered float array of shape (rows, n_values) in file order,
    ``out`` when given (its shape must match the header).  Rows go through
    the bulk fast path; if any chunk is not writer-canonical the data is
    re-read from its first row by the per-line loop, which accepts every
    other valid spelling and reports the first bad ``path:line``.
    """
    path = Path(path)
    with _open_text(path) as fh:
        n, grid, label, rows = _start_table(path, fh, magic, columns)
        values = np.empty((rows, n_values)) if out is None else out
        if values.shape != (rows, n_values):
            raise FileFormatError(f"{path}: file changed while it was being read")
        data_start = fh.tell()
        if not _read_rows_fast(fh, n, grid, values):
            fh.seek(data_start)
            _read_rows_loop(path, fh, n, grid, values)
    return n, grid, label, values


def _field_map(n: int, grid: SphericalGrid, label: str, values: np.ndarray) -> AntennaFieldMap:
    # (rows, 2) re/im floats viewed as complex: every bit kept, -0.0 included
    samples = values.view(np.complex128).reshape(n, grid.n_theta, grid.n_phi)
    return AntennaFieldMap(grid=grid, samples=samples, label=label)


def read_field_file(path) -> AntennaFieldMap:
    """Read a beamshadow-field v1 file back into an AntennaFieldMap."""
    return _field_map(*_read_table(path, FIELD_MAGIC, _FIELD_COLUMNS, 2))


def _parse_files(paths, tables, start: int, stop: int) -> None:
    """A range's work: parse files start..stop-1 into their shared values,
    in path order; a file whose header failed raises that error here."""
    for path, table in zip(paths[start:stop], tables[start:stop]):
        if isinstance(table, Exception):
            raise table
        _read_table(path, FIELD_MAGIC, _FIELD_COLUMNS, 2, out=table[3])


def read_field_files(paths) -> list[AntennaFieldMap]:
    """``[read_field_file(p) for p in paths]``, read concurrently (see the
    module docstring); the first bad path's error is raised, as there."""
    import mmap

    paths = [Path(p) for p in paths]
    tables = []  # per path: (n, grid, label, shared values), or its header's error
    for path in paths:
        try:
            with _open_text(path) as fh:
                n, grid, label, rows = _start_table(path, fh, FIELD_MAGIC, _FIELD_COLUMNS)
        except (FileFormatError, OSError) as exc:
            tables.append(exc)  # raised by its range, in path order
            continue
        values = np.frombuffer(mmap.mmap(-1, 16 * rows), np.float64).reshape(rows, 2)
        tables.append((n, grid, label, values))
    with forked.split(
        len(paths),
        lambda lo, hi: f"{', '.join(map(str, paths[lo:hi]))}: reader",
        _parse_files,
        paths,
        tables,
    ) as (own, replies):
        _parse_files(paths, tables, *own)
        list(replies)  # a child's error, in range order
    return [_field_map(*table) for table in tables]


def read_distortion_file(path) -> DistortionField:
    """Read a beamshadow-distortion v1 file back into a DistortionField."""
    path = Path(path)
    n, grid, label, values = _read_table(path, DISTORTION_MAGIC, _DISTORTION_COLUMNS, 2)
    shape = (n, grid.n_theta, grid.n_phi)
    try:
        return DistortionField(
            grid=grid,
            amp=values[:, 0].reshape(shape),
            phase=values[:, 1].reshape(shape),
            label=label,
        )
    except ValueError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def write_gain_map_csv(grid: SphericalGrid, gain_db: np.ndarray, path) -> None:
    """Dump a gain map as CSV rows ``theta_deg,phi_deg,gain_db``; exact
    nulls are written as ``-inf``."""
    gain_db = np.asarray(gain_db, dtype=float)
    if gain_db.shape != grid.shape:
        raise ValueError(f"gain map shape {gain_db.shape} does not match grid {grid.shape}")
    _write_table(path, "theta_deg,phi_deg,gain_db\n", _axis_tokens(grid), (gain_db.reshape(-1),))


def write_cdf_csv(summary, path) -> None:
    """Dump a CdfSummary's percentile table as CSV rows ``percentile,value_db``."""
    table = np.array(summary.percentiles, dtype=float).reshape(-1, 2)
    _write_table(path, "percentile,value_db\n", (map(_fmt, table[:, 0]),), table[:, 1:].T)


def write_coverage_csv(rows, path) -> None:
    """Dump CoverageRows as CSV rows
    ``antenna,max_free_gain_db,max_blocked_gain_db,roi_area_pct``."""
    header = "antenna,max_free_gain_db,max_blocked_gain_db,roi_area_pct\n"
    antennas = [str(r.antenna) for r in rows]
    values = [(r.max_free_gain_db, r.max_blocked_gain_db, r.roi_area_pct) for r in rows]
    _write_table(path, header, (antennas,), np.array(values, dtype=float).reshape(-1, 3).T)


def trials_csv_rows(first_trial: int, b_values, var, lower, delta, margin):
    """CSV rows ``trial,B,var_blockage,lower_bound,delta_achieved,margin`` of
    trials first_trial.. in (trial, B) order, floats as ``repr``, in ASCII
    chunks of at most ``_CHUNK_ROWS`` rows; the columns after ``var`` are (trials, B)."""
    b_tokens = [str(b) for b in b_values]
    # each trial's variance is formatted once, into its rows' prefixes
    trials = range(first_trial, first_trial + len(var))
    prefixes = [f"{t},{b},{v}" for t, v in zip(trials, map(repr, var.tolist())) for b in b_tokens]
    yield from _table_chunks((prefixes,), (lower.ravel(), delta.ravel(), margin.ravel()))


@contextmanager
def open_trials_csv(path):
    """A binary handle on a new hidden file beside path, the trials CSV header
    written; renamed onto path when the block succeeds, removed when it fails."""
    path = Path(path)
    partial = path.parent / f".{path.name}.{os.getpid()}.partial"
    try:
        fh = partial.open("wb")
    except OSError as exc:  # name the file the caller asked for
        raise OSError(exc.errno, exc.strerror, str(path)) from None
    try:
        with fh:
            fh.write(b"trial,B,var_blockage,lower_bound,delta_achieved,margin\n")
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
