"""System-parameter record shared by every other module.

All powers are linear with the noise power normalized to 1; decibel values
appear only at CLI boundaries.  The bandwidth field is the already-halved
constant that accounts for the two-slot relaying protocol, so no factor-1/2
logic exists anywhere else.
"""
import math
from dataclasses import dataclass


class ParameterError(ValueError):
    """A parameter record violates one or more invariants.

    ``errors`` carries one message per violated field.
    """

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class SystemParams:
    p_s: float = 100.0      # source transmit power, linear (default 20 dB)
    p_r: float = 100.0      # relay transmit power, linear (default 20 dB)
    alpha_sr: float = 1.0   # source->relay path-loss gain
    alpha_rd: float = 1.0   # relay->destination path-loss gain
    alpha_re: float = 1.0   # relay->eavesdropper path-loss gain
    rho: float = 0.9        # CSI correlation coefficient, in [0, 1]
    n_r: int = 100          # relay antenna count
    w_hz: float = 10_000.0  # effective bandwidth in Hz (half of the spectral bandwidth)
    epsilon: float = 0.01   # target secrecy outage probability, in (0, 1]


# Fields given in dB at the CLI and config boundary (flag ``--p-s-db``, key
# ``p_s_db``), with the quantity each one is.
DB_FIELDS = {"p_s": "source power", "p_r": "relay power"}
FLOAT_OVERFLOW = 2**1024 - 2**970  # the smallest integer that float() overflows on


def from_decibel(snr_db: float) -> float:
    """10**(snr_db/10), the linear power of a dB value; ValueError unless both are finite."""
    if not math.isfinite(snr_db):
        raise ValueError(f"dB value must be finite, got {snr_db!r}")
    try:
        return 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"dB value {snr_db!r} overflows a linear power") from None


def validate(params: SystemParams) -> SystemParams:
    """Return ``params`` unchanged if every invariant holds.

    Raises:
        ParameterError: naming every violated field.
    """
    errors = []
    for name in ("p_s", "p_r"):
        v = getattr(params, name)
        if not (math.isfinite(v) and v >= 0.0):
            errors.append(f"{name} must be finite and >= 0, got {v}")
    for name in ("alpha_sr", "alpha_rd", "alpha_re"):
        v = getattr(params, name)
        if not (math.isfinite(v) and v > 0.0):
            errors.append(f"{name} must be finite and > 0, got {v}")
    if not (math.isfinite(params.rho) and 0.0 <= params.rho <= 1.0):
        errors.append(f"rho must lie in [0, 1], got {params.rho}")
    if isinstance(params.n_r, int) and not abs(params.n_r) < FLOAT_OVERFLOW:
        errors.append("n_r must be an integer >= 1 that a float can hold")
    elif params.n_r != int(params.n_r) or params.n_r < 1:
        errors.append(f"n_r must be an integer >= 1, got {params.n_r}")
    if not (math.isfinite(params.w_hz) and params.w_hz > 0.0):
        errors.append(f"w_hz must be finite and > 0, got {params.w_hz}")
    if not (math.isfinite(params.epsilon) and 0.0 < params.epsilon <= 1.0):
        errors.append(f"epsilon must lie in (0, 1], got {params.epsilon}")
    if errors:
        raise ParameterError(errors)
    return params
