"""On-disk formats: field maps, distortion screens, codebooks, gain maps.

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
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from itertools import islice
from pathlib import Path

import numpy as np

from .distortion import DistortionField
from .fields import AntennaFieldMap
from .sphere import SphericalGrid, make_grid

__all__ = [
    "FileFormatError",
    "write_field_file",
    "read_field_file",
    "write_distortion_file",
    "read_distortion_file",
    "write_codebook_csv",
    "write_gain_map_csv",
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


# Data rows the fast reader parses per bulk step.  Bounded so that one
# chunk's token list stays a few hundred kB: on a 1-degree `metrics` run,
# 2048-row chunks added about 2 MB to a 71 MB peak RSS, 32768-row ones 20 MB.
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


def _write_rows(fh, grid: SphericalGrid, per_antenna, value_fmt) -> None:
    theta_s, phi_s = _axis_tokens(grid)
    for a, block in enumerate(per_antenna):
        prefix = str(a)
        for it, th in enumerate(theta_s):
            row = block[it]
            for ip, ph in enumerate(phi_s):
                fh.write(f"{prefix},{th},{ph},{value_fmt(row[ip])}\n")


def write_field_file(field: AntennaFieldMap, path) -> None:
    """Write a field map in the beamshadow-field v1 format."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write(_header_line(FIELD_MAGIC, field.n_antennas, field.grid, field.label) + "\n")
        fh.write(_FIELD_COLUMNS + "\n")
        _write_rows(
            fh,
            field.grid,
            field.samples,
            lambda z: f"{_fmt(z.real)},{_fmt(z.imag)}",
        )


def write_distortion_file(distortion: DistortionField, path) -> None:
    """Write a distortion field in the beamshadow-distortion v1 format."""
    path = Path(path)
    amp, phase = distortion.amp, distortion.phase
    with path.open("w", newline="") as fh:
        fh.write(
            _header_line(DISTORTION_MAGIC, distortion.n_antennas, distortion.grid, distortion.label)
            + "\n"
        )
        fh.write(_DISTORTION_COLUMNS + "\n")
        theta_s, phi_s = _axis_tokens(distortion.grid)
        for a in range(distortion.n_antennas):
            for it, th in enumerate(theta_s):
                arow, prow = amp[a, it], phase[a, it]
                for ip, ph in enumerate(phi_s):
                    fh.write(f"{a},{th},{ph},{_fmt(arow[ip])},{_fmt(prow[ip])}\n")


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


def _start_table(path: Path, fh, magic: str, columns: str, n_values: int):
    """Parse the two header lines and allocate the (rows, n_values) value array."""
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
    return n, grid, label, np.empty((total, n_values))


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


def _read_table(path, magic: str, columns: str, n_values: int):
    """Parse header plus ordered data rows; returns (n, grid, label, values).

    values is a float array of shape (rows, n_values) in file order.  Rows go
    through the bulk fast path; if any chunk is not writer-canonical the data
    is re-read from its first row by the per-line loop, which accepts every
    other valid spelling and reports the first bad ``path:line``.
    """
    path = Path(path)
    with _open_text(path) as fh:
        n, grid, label, values = _start_table(path, fh, magic, columns, n_values)
        data_start = fh.tell()
        if not _read_rows_fast(fh, n, grid, values):
            fh.seek(data_start)
            _read_rows_loop(path, fh, n, grid, values)
    return n, grid, label, values


def _read_table_loop(path, magic: str, columns: str, n_values: int):
    """``_read_table`` without the fast path: the reference it must agree with."""
    path = Path(path)
    with _open_text(path) as fh:
        n, grid, label, values = _start_table(path, fh, magic, columns, n_values)
        _read_rows_loop(path, fh, n, grid, values)
    return n, grid, label, values


def read_field_file(path) -> AntennaFieldMap:
    """Read a beamshadow-field v1 file back into an AntennaFieldMap."""
    n, grid, label, values = _read_table(path, FIELD_MAGIC, _FIELD_COLUMNS, 2)
    samples = (values[:, 0] + 1j * values[:, 1]).reshape(n, grid.n_theta, grid.n_phi)
    return AntennaFieldMap(grid=grid, samples=samples, label=label)


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


def write_codebook_csv(codebook, path) -> None:
    """Dump codebook entries as CSV rows ``entry,antenna,re,im,tag``."""
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("entry,antenna,re,im,tag\n")
        for k, entry in enumerate(codebook.entries):
            for i, w in enumerate(entry.weights):
                fh.write(f"{k},{i},{_fmt(w.real)},{_fmt(w.imag)},{entry.tag}\n")


def write_gain_map_csv(grid: SphericalGrid, gain_db: np.ndarray, path) -> None:
    """Dump a gain map as CSV rows ``theta_deg,phi_deg,gain_db``.

    Masked-out cells (NaN) are written as ``nan``; exact nulls as ``-inf``.
    """
    gain_db = np.asarray(gain_db, dtype=float)
    if gain_db.shape != grid.shape:
        raise ValueError(f"gain map shape {gain_db.shape} does not match grid {grid.shape}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        fh.write("theta_deg,phi_deg,gain_db\n")
        theta_s, phi_s = _axis_tokens(grid)
        for it, th in enumerate(theta_s):
            row = gain_db[it]
            for ip, ph in enumerate(phi_s):
                fh.write(f"{th},{ph},{_fmt(row[ip])}\n")
