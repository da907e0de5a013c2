"""Terminal records and pad sentinels (§V-B).

The paper flushes merger state between consecutive input runs by feeding
"exactly one terminal record between adjacent input arrays"; the terminal
"propagates through the AMT causing only a single-cycle delay when
flushing each merger's state".  On the memory side the terminal is encoded
as the reserved key zero (zero append / zero filter in Fig. 7); inside the
simulator we use a distinguished marker object so genuine zero keys can be
tested against the encoder explicitly.

Pad sentinels fill the tail of a run up to a whole merger tuple; they carry
the maximum representable key so they sort to the end of their run and are
dropped by the output filter.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


class _Terminal:
    """Singleton marker separating adjacent runs inside simulator streams."""

    __slots__ = ()
    _instance: "_Terminal | None" = None

    def __new__(cls) -> "_Terminal":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<TERMINAL>"


#: The terminal marker instance; compare with ``is_terminal`` or ``is``.
TERMINAL = _Terminal()

#: Pad key used to complete partial tuples; must exceed every real key.
#: Real keys are uint64 record prefixes, so the sentinel sits one above
#: the whole key space and no key value is reserved.  The simulator holds
#: records as Python ints; the sentinel never enters a numpy array.
SENTINEL_KEY = 1 << 64


def is_terminal(item: object) -> bool:
    """True when a stream item is the terminal marker."""
    return item is TERMINAL


def is_sentinel(key: int) -> bool:
    """True when a record key is the pad sentinel."""
    return key == SENTINEL_KEY


def pad_to_tuple(records: list[int], width: int) -> list[int]:
    """Pad a partial tuple with sentinels up to ``width`` records."""
    if len(records) > width:
        raise ConfigurationError(
            f"cannot pad {len(records)} records down to width {width}"
        )
    return records + [SENTINEL_KEY] * (width - len(records))


def strip_sentinels(records: list[int]) -> list[int]:
    """Remove pad sentinels from a flushed output run."""
    return [key for key in records if key != SENTINEL_KEY]
