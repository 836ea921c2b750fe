"""Per-antenna complex far-field maps for a linear array, and the one
checker of the config dataclasses.

A field map stores one complex sample (numpy complex128: real/imag pair) per
antenna per grid direction.  The synthetic free-space model places the array
on the z axis with half-wavelength-style progressive phase and gives every
element the same cos^q power envelope around a common boresight, with a
small constant back-lobe floor so no direction is exactly null.

Every config dataclass (``ArrayConfig``, ``FingerSpec``, ``DistortionSpec``,
``ExperimentConfig``) is frozen and opens ``__post_init__`` with ``typed_fields``,
so a YAML or dict config, a constructor and ``dataclasses.replace`` check
alike.  An array has 1 to ``MAX_ANTENNAS`` (64) elements.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from contextlib import contextmanager, nullcontext
from dataclasses import MISSING, dataclass, fields, is_dataclass

import numpy as np

from .sphere import SphericalGrid

__all__ = [
    "MAX_ANTENNAS",
    "ArrayConfig",
    "AntennaFieldMap",
    "synth_freespace_field",
    "typed",
    "typed_fields",
    "prefixed",
    "search_power_overflows",
]

_SCALARS = {  # annotation -> (accepted type, noun for the error)
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}
_hints = functools.cache(typing.get_type_hints)
MAX_ANTENNAS = 64  # codebook._add_tree follows numpy's sum order up to 64 terms


@contextmanager
def prefixed(where: str):
    """Re-raise a ``ValueError`` of the block as one whose message starts ``where: ``."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def typed_fields(config) -> None:
    """Store each field of the config dataclass ``config`` as ``typed``
    returns it; every config's ``__post_init__`` opens with this call."""
    hints = _hints(type(config))
    for f in fields(config):
        object.__setattr__(config, f.name, typed(hints[f.name], getattr(config, f.name), f.name))


def typed(hint, value, key: str = ""):
    """``value`` checked against the annotation ``hint``: the config
    dataclasses' fields are the whole schema.  A mapping is typed key by key
    and becomes the dataclass, built once (its range checks' errors start
    ``config key 'K': ``); an instance was checked when it was built.  Null
    passes only under ``X | None``; ``int`` refuses floats and booleans,
    ``float`` booleans, strings, NaN and infinities.  Every error is a
    ``ValueError`` naming the key path, such as
    ``scenarios.x.fingers[0].antennas``."""
    where = f"config key {key!r}" if key else "config"
    args = typing.get_args(hint)
    if value is None:
        if type(None) in args:
            return None
        raise ValueError(f"{where} must not be null")
    if typing.get_origin(hint) is types.UnionType:
        return typed(args[0], value, key)  # X | None
    if is_dataclass(hint):
        if isinstance(value, hint):
            return value
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a mapping, got {value!r}")
        unknown = set(value) - {f.name for f in fields(hint)}
        if unknown:
            raise ValueError(f"unknown keys in {key or 'config'}: {sorted(map(str, unknown))}")
        required = {f.name for f in fields(hint) if f.default is f.default_factory is MISSING}
        missing = sorted(required - set(value))
        if missing:
            raise ValueError(f"{where} is missing required keys {missing}")
        hints = _hints(hint)
        kwargs = {
            name: typed(hints[name], v, f"{key}.{name}" if key else name)
            for name, v in value.items()
        }
        with prefixed(where) if key else nullcontext():  # the top level names its own keys
            return hint(**kwargs)
    if typing.get_origin(hint) is dict:
        if not isinstance(value, dict):
            raise ValueError(f"{where} must be a mapping, got {value!r}")
        for name in value:
            if not isinstance(name, str):
                raise ValueError(f"{where} needs string keys, got {name!r}")
        return {name: typed(args[1], v, f"{key}.{name}") for name, v in value.items()}
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ValueError(f"{where} must be a list, got {value!r}")
        if args[-1] is Ellipsis:
            args = args[:1] * len(value)
        elif len(value) != len(args):
            raise ValueError(f"{where} must have {len(args)} items, got {len(value)}")
        return tuple(typed(a, v, f"{key}[{i}]") for i, (a, v) in enumerate(zip(args, value)))
    kind, noun = _SCALARS[hint]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"{where} must be {noun}, got {value!r}")
    if hint is float and not -math.inf < value < math.inf:  # NaN compares false
        raise ValueError(f"{where} must be finite, got {value!r}")
    try:
        return hint(value)
    except OverflowError:
        raise ValueError(f"{where} is out of range, got {value!r}") from None


def search_power_overflows(n_antennas: int, peak: float, smallest: float = 1.0) -> bool:
    """Whether a search of fields whose ``|E_i|`` lie in [smallest, peak] can leave
    the float range: it squares ``|sum_i |E_i| E_i|^2 <= (N * peak**2)**2``, and
    the amplitude search's power of the smallest, ``smallest**4``, can be zero."""
    power, low = n_antennas * (peak * peak), smallest * smallest
    return not math.isfinite(power * power) or low * low == 0.0


@dataclass(frozen=True)
class ArrayConfig:
    """Geometry and element model of the synthetic array.

    Attributes
    ----------
    n_antennas:
        Number of array elements (1..64), indexed 0..N-1 along the z axis.
    element_spacing:
        Inter-element spacing in wavelengths; the progressive phase
        ``2*pi * spacing * (N - 1)`` must be finite.
    boresight_theta, boresight_phi:
        Peak direction of the common element envelope, degrees.
    element_exponent:
        Exponent q of the cos^q *power* envelope; q = 0 gives an isotropic
        element.
    peak_element_gain_db:
        Elemental gain at boresight, dB.
    backlobe_floor_db:
        Envelope floor relative to the peak, dB (must be negative); keeps
        the field nonzero behind the array, so the fourth power of its
        amplitude, which the amplitude search forms, must not underflow.
    """

    n_antennas: int = 4
    element_spacing: float = 0.5
    boresight_theta: float = 90.0
    boresight_phi: float = 270.0
    element_exponent: float = 2.0
    peak_element_gain_db: float = 11.0
    backlobe_floor_db: float = -30.0

    def __post_init__(self):
        typed_fields(self)
        if not 1 <= self.n_antennas <= MAX_ANTENNAS:
            raise ValueError(f"n_antennas must be in 1..{MAX_ANTENNAS}, got {self.n_antennas}")
        # the progressive phase reaches 2*pi * spacing * (N - 1); inf * 0 is NaN
        if not 0.0 < 2.0 * math.pi * self.element_spacing * max(self.n_antennas - 1, 1) < math.inf:
            raise ValueError(
                f"element_spacing must be positive, its phase across the array finite, got "
                f"{self.element_spacing!r}"
            )
        if self.element_exponent < 0.0:
            raise ValueError("element_exponent must be >= 0")
        if not 0.0 <= self.boresight_theta <= 180.0:
            raise ValueError("boresight_theta must be in [0, 180]")
        if self.backlobe_floor_db >= 0.0:
            raise ValueError("backlobe_floor_db must be negative")
        # the free field's largest |E_i| is its boresight amplitude; the cap keeps
        # it a float, and any peak past about 1e77 overflows the search already
        peak = 10.0 ** min(self.peak_element_gain_db / 20.0, 308.0)
        if search_power_overflows(self.n_antennas, peak):
            raise ValueError(
                f"peak_element_gain_db {self.peak_element_gain_db!r} overflows the "
                f"beamformed power of {self.n_antennas} antennas"
            )
        backlobe = peak * math.sqrt(10.0 ** (self.backlobe_floor_db / 10.0))
        if search_power_overflows(self.n_antennas, peak, backlobe):
            raise ValueError(
                f"backlobe_floor_db {self.backlobe_floor_db!r} at peak_element_gain_db "
                f"{self.peak_element_gain_db!r} underflows the beamformed power behind the array"
            )


@dataclass(eq=False)
class AntennaFieldMap:
    """Complex field samples of shape (n_antennas, n_theta, n_phi) on a grid."""

    grid: SphericalGrid
    samples: np.ndarray
    label: str = "field"

    def __post_init__(self):
        self.samples = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if self.samples.ndim != 3 or self.samples.shape[1:] != self.grid.shape:
            raise ValueError(
                f"samples must have shape (n_antennas, {self.grid.n_theta}, "
                f"{self.grid.n_phi}), got {self.samples.shape}"
            )
        if self.samples.shape[0] < 1:
            raise ValueError("field map needs at least one antenna")
        if not np.isfinite(self.samples).all():
            raise ValueError("field samples must be finite")

    @property
    def n_antennas(self) -> int:
        return int(self.samples.shape[0])


def synth_freespace_field(config: ArrayConfig, grid: SphericalGrid) -> AntennaFieldMap:
    """Synthesize the free-space per-antenna field map for an array config."""
    th = np.radians(grid.thetas)[:, None]
    ph = np.radians(grid.phis)[None, :]
    bt = math.radians(config.boresight_theta)
    bp = math.radians(config.boresight_phi)
    cos_psi = np.cos(th) * math.cos(bt) + np.sin(th) * math.sin(bt) * np.cos(ph - bp)
    envelope = np.clip(cos_psi, 0.0, None) ** config.element_exponent
    envelope = np.maximum(envelope, 10.0 ** (config.backlobe_floor_db / 10.0))
    amp = 10.0 ** (config.peak_element_gain_db / 20.0) * np.sqrt(envelope)
    idx = np.arange(config.n_antennas)[:, None, None]
    prog = 2.0 * math.pi * config.element_spacing * idx * np.cos(th)[None, :, :]
    samples = amp[None, :, :] * np.exp(1j * prog)
    return AntennaFieldMap(grid=grid, samples=samples, label="free")
