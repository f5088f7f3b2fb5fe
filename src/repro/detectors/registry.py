"""Name-based detector construction, and the one table of detector
names the library, the CLI, the daemon and the load generator accept."""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.detectors.djit import DjitPlusDetector
from repro.detectors.drd import SegmentDetector
from repro.detectors.eraser import EraserDetector
from repro.detectors.fasttrack import FastTrackDetector
from repro.detectors.inspector import HybridDetector
from repro.detectors.sampling import (
    LiteRaceDetector,
    O1SamplesDetector,
    PacerDetector,
)


def _dynamic(**kwargs):
    # Imported lazily to avoid a circular import (repro.core builds on
    # repro.detectors.base).
    from repro.core.config import DynamicConfig
    from repro.core.detector import DynamicGranularityDetector

    config = kwargs.pop("config", None)
    flags = {
        k: kwargs.pop(k)
        for k in (
            "init_state",
            "share_at_init",
            "neighbor_scan_limit",
            "guide_reads_by_writes",
            "resharing_interval",
        )
        if k in kwargs
    }
    if config is None:
        config = DynamicConfig(**flags)
    elif flags:
        raise TypeError("pass either config= or individual flags, not both")
    return DynamicGranularityDetector(config=config, **kwargs)


#: registry names that are sampling wrappers (accept ``inner=`` and the
#: generic ``rate=`` knob; composable via ``sampler:inner`` names)
SAMPLER_NAMES = ("literace", "pacer", "o1")


def _rate_kw(kwargs: Dict, param: str) -> Dict:
    """Translate the policy-neutral ``rate=`` knob (used by the recall
    grid and ``sampler:inner`` names) into each policy's own parameter:
    LiteRace's floor rate, Pacer's epoch rate, and the O(1)-samples
    per-phase budget (rate 1.0 → unbounded; else ~rate × 20 samples)."""
    if "rate" not in kwargs:
        return kwargs
    kwargs = dict(kwargs)
    rate = kwargs.pop("rate")
    if param == "budget":
        kwargs[param] = None if rate >= 1.0 else max(1, round(rate * 20))
    else:
        kwargs[param] = rate
    return kwargs


_FACTORIES: Dict[str, Callable] = {
    "djit-byte": lambda **kw: DjitPlusDetector(granularity=1, **kw),
    "djit-word": lambda **kw: DjitPlusDetector(granularity=4, **kw),
    "fasttrack-byte": lambda **kw: FastTrackDetector(granularity=1, **kw),
    "fasttrack-word": lambda **kw: FastTrackDetector(granularity=4, **kw),
    "fasttrack-dynamic": _dynamic,
    "eraser": lambda **kw: EraserDetector(**kw),
    "drd": lambda **kw: SegmentDetector(**kw),
    "inspector": lambda **kw: HybridDetector(**kw),
    "literace": lambda **kw: LiteRaceDetector(**_rate_kw(kw, "floor_rate")),
    "pacer": lambda **kw: PacerDetector(**_rate_kw(kw, "rate")),
    "o1": lambda **kw: O1SamplesDetector(**_rate_kw(kw, "budget")),
}


#: Other accepted spellings of canonical names: ``dynamic`` is the
#: paper's tool (the golden corpus key, the CLI default) and
#: ``fasttrack`` the client library's default.
ALIASES = {"dynamic": "fasttrack-dynamic", "fasttrack": "fasttrack-byte"}


def available_detectors() -> List[str]:
    """All canonical detector names (aliases excluded)."""
    return sorted(_FACTORIES)


def canonical_name(name: str) -> str:
    """The canonical registry name of ``name`` or of its alias.

    Raises :class:`ValueError` for any other name, a ``sampler:inner``
    composition included (:func:`is_detector` accepts those).
    """
    canonical = ALIASES.get(name, name)
    if canonical not in _FACTORIES:
        raise ValueError(
            f"unknown detector {name!r}; available: {available_detectors()}"
        )
    return canonical


def is_detector(name: str) -> bool:
    """Whether :func:`create_detector` accepts ``name``: a registry name,
    an alias, or a sampler composition like ``pacer:djit-byte``."""
    *outers, inner = name.split(":")
    return ALIASES.get(inner, inner) in _FACTORIES and all(
        o in SAMPLER_NAMES for o in outers
    )


def create_detector(name: str, **kwargs):
    """Instantiate a detector by registry name.

    ``name`` may be an alias (:data:`ALIASES`).  Extra keyword
    arguments are forwarded to the constructor (e.g.
    ``suppress=``, or the :class:`~repro.core.config.DynamicConfig`
    flags for the dynamic detector).

    ``sampler:inner`` composes a sampling wrapper around any registry
    detector — ``pacer:djit-byte``, ``o1:dynamic``,
    ``literace:fasttrack-word`` — recursively, so
    ``literace:pacer:fasttrack-byte`` stacks two policies.  Keyword
    arguments before the colon split: ``rate=`` and sampler knobs go to
    the wrapper, everything else (plus ``suppress=``) to the inner.
    """
    if ":" in name:
        outer, _, inner_name = name.partition(":")
        if outer not in SAMPLER_NAMES:
            raise ValueError(
                f"unknown sampler {outer!r} in {name!r}; "
                f"samplers: {list(SAMPLER_NAMES)}"
            )
        sampler_kw = {
            k: kwargs.pop(k)
            for k in ("rate", "floor_rate", "burst", "budget", "bucket",
                      "lazy_timestamps")
            if k in kwargs
        }
        suppress = kwargs.get("suppress")
        inner = create_detector(inner_name, **kwargs)
        det = create_detector(
            outer, inner=inner, suppress=suppress, **sampler_kw
        )
        det.name = name
        return det
    return _FACTORIES[canonical_name(name)](**kwargs)
