"""Parameterisation of the BCN congestion-control system.

The paper works with two coordinate systems:

* **Physical** parameters, as configured on switches and rate regulators
  (:class:`BCNParams`): link capacity ``C``, flow count ``N``, reference
  queue ``q0``, buffer ``B``, severe-congestion threshold ``q_sc``, sampling
  probability ``p_m``, queue-derivative weight ``w``, AIMD gains ``Gi``,
  ``Gd`` and the rate unit ``Ru``.

* **Normalised** parameters used throughout the analysis
  (:class:`NormalizedParams`): with state ``x = q - q0`` and
  ``y = N*r - C`` the dynamics depend only on

  ==========  =======================  =============================
  symbol      definition               role
  ==========  =======================  =============================
  ``a``       ``Ru * Gi * N``          additive-increase strength
  ``b``       ``Gd``                   multiplicative-decrease gain
  ``k``       ``w / (p_m * C)``        switching-line slope (x = -k y)
  ==========  =======================  =============================

  (Section IV.A of the paper.)

Units
-----
The paper quotes capacities in bits per second and queues in bits; any
consistent unit system works.  The worked example in Section IV (Remarks)
uses ``C = 10 Gbit/s``, queue lengths in Mbit, so we default to bits and
seconds everywhere and provide :data:`PAPER_EXAMPLE` with exactly the
numbers of that example.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Any


__all__ = [
    "BCNParams",
    "NormalizedParams",
    "PAPER_EXAMPLE",
    "paper_example_params",
]


def _require_positive_finite(name: str, value: float) -> None:
    # NaN turns every comparison false, so it must be named to be caught.
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


@dataclass(frozen=True)
class BCNParams:
    """Physical configuration of a single-bottleneck BCN control loop.

    Parameters
    ----------
    capacity:
        Bottleneck link capacity ``C`` in bits/second.
    n_flows:
        Number ``N`` of homogeneous active flows sharing the bottleneck.
    q0:
        Reference (equilibrium) queue length in bits.
    buffer_size:
        Physical buffer size ``B`` in bits; the strong-stability definition
        requires ``0 < q(t) < B`` after a transient.
    w:
        Weight of the queue-length derivative term in the congestion
        measure ``sigma = (q0 - q) - w * dq``.
    pm:
        Deterministic sampling probability of incoming packets at the core
        switch (a packet is sampled once every ``1/pm`` packets on
        average).
    gi:
        Additive-increase gain ``Gi`` of the rate regulator.
    gd:
        Multiplicative-decrease gain ``Gd`` of the rate regulator.
    ru:
        Rate increase unit ``Ru`` (bits/second); a positive feedback
        ``sigma`` increases the rate by ``Gi * Ru * sigma``.
    q_sc:
        Severe-congestion threshold; above it the switch emits 802.3x
        PAUSE frames.  Defaults to the buffer size (PAUSE disabled in the
        fluid analysis, which matches the paper's model).
    initial_rate:
        Initial per-source sending rate ``mu`` (bits/second) used for the
        warm-up stage analysis (``T0 = (C - N*mu) / (a*q0)``).
    """

    capacity: float
    n_flows: int
    q0: float
    buffer_size: float
    w: float = 2.0
    pm: float = 0.01
    gi: float = 4.0
    gd: float = 1.0 / 128.0
    ru: float = 8e6
    q_sc: float | None = None
    initial_rate: float = 0.0

    def __post_init__(self) -> None:
        _require_positive_finite("capacity", self.capacity)
        if self.n_flows < 1:
            raise ValueError(f"n_flows must be >= 1, got {self.n_flows}")
        _require_positive_finite("q0", self.q0)
        _require_positive_finite("buffer_size", self.buffer_size)
        _require_positive_finite("w", self.w)
        if not 0 < self.pm <= 1:
            raise ValueError(f"pm must lie in (0, 1], got {self.pm}")
        _require_positive_finite("gi", self.gi)
        _require_positive_finite("gd", self.gd)
        _require_positive_finite("ru", self.ru)
        if self.q0 >= self.buffer_size:
            raise ValueError(
                f"q0 ({self.q0}) must be below the buffer size ({self.buffer_size})"
            )
        if self.q_sc is not None and not self.q0 < self.q_sc <= self.buffer_size:
            raise ValueError(
                f"q_sc ({self.q_sc}) must lie in (q0, buffer_size]"
            )
        if self.initial_rate < 0:
            raise ValueError("initial_rate must be non-negative")
        if self.initial_rate * self.n_flows >= self.capacity:
            raise ValueError(
                "initial aggregate rate must be below capacity for the "
                "warm-up analysis to apply"
            )

    # -- derived quantities -------------------------------------------------

    @property
    def severe_threshold(self) -> float:
        """Effective PAUSE threshold ``q_sc`` (buffer size when unset)."""
        return self.buffer_size if self.q_sc is None else self.q_sc

    @property
    def fair_rate(self) -> float:
        """Equilibrium per-source rate ``C / N``."""
        return self.capacity / self.n_flows

    def normalized(self) -> "NormalizedParams":
        """Return the normalised parameters ``(a, b, k)`` of Section IV.A."""
        return NormalizedParams(
            a=self.ru * self.gi * self.n_flows,
            b=self.gd,
            k=self.w / (self.pm * self.capacity),
            capacity=self.capacity,
            q0=self.q0,
            buffer_size=self.buffer_size,
        )

    def with_(self, **changes: Any) -> "BCNParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def warmup_duration(self) -> float:
        """Duration ``T0`` of the start-up stage.

        While the queue is empty the switch feeds back ``sigma = q0`` and
        the aggregate rate grows linearly at ``a * q0``; the queue starts
        to build once the aggregate rate reaches ``C``, after
        ``T0 = (C - N*mu) / (a * q0)`` seconds (Section IV.C).
        """
        a = self.ru * self.gi * self.n_flows
        return (self.capacity - self.n_flows * self.initial_rate) / (a * self.q0)


@dataclass(frozen=True)
class NormalizedParams:
    """Normalised BCN parameters and the derived analysis quantities.

    The dynamics of the normalised state ``(x, y)`` are (eq. 8)::

        dx/dt = y
        dy/dt = -a (x + k y)              in the rate-increase region
        dy/dt = -b (y + C) (x + k y)      in the rate-decrease region

    with the switching line ``x + k y = 0``.  The linearisation about the
    origin gives the shared characteristic equation ``lambda^2 +
    k n lambda + n = 0`` with ``n = a`` (increase) or ``n = b C``
    (decrease) — eq. (35).
    """

    a: float
    b: float
    k: float
    capacity: float
    q0: float
    buffer_size: float = field(default=math.inf)

    def __post_init__(self) -> None:
        _require_positive_finite("a", self.a)
        _require_positive_finite("b", self.b)
        _require_positive_finite("k", self.k)
        _require_positive_finite("capacity", self.capacity)
        _require_positive_finite("q0", self.q0)
        if self.buffer_size <= self.q0:
            raise ValueError("buffer_size must exceed q0")

    # -- case thresholds ----------------------------------------------------
    #
    # The discriminant of eq. (35) is (k n)^2 - 4 n = n (k^2 n - 4), so a
    # region is a focus (spiral) iff n < 4 / k^2.  With k = w/(pm C) this is
    # exactly the paper's thresholds a ≶ 4 pm^2 C^2 / w^2 and
    # b ≶ 4 pm^2 C / w^2.

    @property
    def focus_threshold(self) -> float:
        """The value ``4 / k^2`` separating spiral from node behaviour."""
        return 4.0 / (self.k * self.k)

    @property
    def n_increase(self) -> float:
        """Characteristic-equation constant ``n1 = a`` (increase region)."""
        return self.a

    @property
    def n_decrease(self) -> float:
        """Characteristic-equation constant ``n2 = b C`` (decrease region)."""
        return self.b * self.capacity

    @property
    def increase_is_focus(self) -> bool:
        """Spiral behaviour in the rate-increase region (``a < 4/k^2``)."""
        return self.n_increase < self.focus_threshold

    @property
    def decrease_is_focus(self) -> bool:
        """Spiral behaviour in the rate-decrease region (``bC < 4/k^2``)."""
        return self.n_decrease < self.focus_threshold

    def sigma(self, x: float, y: float) -> float:
        """Feedback measure ``sigma = -(x + k y)`` at a normalised state."""
        return -(x + self.k * y)

    def with_(self, **changes: Any) -> "NormalizedParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def to_physical(
        self,
        *,
        n_flows: int = 1,
        w: float = 2.0,
        gi: float | None = None,
    ) -> BCNParams:
        """Recover one physical parameterisation realising these values.

        The map from physical to normalised parameters is many-to-one;
        this inverse fixes ``n_flows`` and ``w`` (and optionally ``Gi``)
        and solves for the remaining degrees of freedom:
        ``pm = w / (k C)``, ``Gd = b`` and ``Ru = a / (Gi N)``.
        """
        gi_val = 4.0 if gi is None else gi
        pm = w / (self.k * self.capacity)
        if not 0 < pm <= 1:
            raise ValueError(
                f"no valid sampling probability for w={w}: pm={pm}; "
                "pick a different w"
            )
        buffer_size = self.buffer_size
        if math.isinf(buffer_size):
            buffer_size = 4.0 * self.q0
        return BCNParams(
            capacity=self.capacity,
            n_flows=n_flows,
            q0=self.q0,
            buffer_size=buffer_size,
            w=w,
            pm=pm,
            gi=gi_val,
            gd=self.b,
            ru=self.a / (gi_val * n_flows),
        )


#: The worked example of Section IV (Remarks): 50 flows on a 10 Gbit/s link,
#: 100 m of fibre (0.5 us propagation delay, 5 Mbit bandwidth-delay
#: product), q0 = 2.5 Mbit and the standard-draft gains Gi = 4,
#: Gd = 1/128, Ru = 8 Mbit/s.  Theorem 1 then requires a buffer of about
#: 13.8 Mbit (the paper rounds to 13.75), nearly 3x the BDP.
PAPER_EXAMPLE = BCNParams(
    capacity=10e9,
    n_flows=50,
    q0=2.5e6,
    buffer_size=20e6,
    w=2.0,
    pm=0.01,
    gi=4.0,
    gd=1.0 / 128.0,
    ru=8e6,
)


def paper_example_params(**overrides: Any) -> BCNParams:
    """Return the Section IV worked-example parameters, with overrides."""
    return PAPER_EXAMPLE.with_(**overrides) if overrides else PAPER_EXAMPLE
