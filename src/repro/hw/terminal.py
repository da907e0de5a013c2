"""Terminal records and pad sentinels (§V-B).

The paper flushes merger state between consecutive input runs by feeding
"exactly one terminal record between adjacent input arrays"; the terminal
"propagates through the AMT causing only a single-cycle delay when
flushing each merger's state".  On the memory side the terminal is encoded
as the reserved key zero (zero append / zero filter in Fig. 7); inside the
simulator we use a distinguished marker object so genuine zero keys can be
tested against the encoder explicitly.

Pad sentinels fill the tail of a run up to a whole merger tuple; they sort
above every real key, so they go to the end of their run, and equal no real
key, so the output filter drops them and nothing else.
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


class _Sentinel:
    """Singleton pad key: equal only to itself, above every other key.

    Real keys may be any totally ordered Python values (uint64 record
    prefixes, but also negative ints, floats and ints past ``2**64``),
    so no key value can serve as the pad: it would sort below a larger
    key and the output filter would drop a real key equal to it.
    """

    __slots__ = ()
    _instance: "_Sentinel | None" = None

    def __new__(cls) -> "_Sentinel":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __eq__(self, other: object) -> bool:
        return other is self

    def __lt__(self, other: object) -> bool:
        return False

    def __le__(self, other: object) -> bool:
        return other is self

    def __gt__(self, other: object) -> bool:
        return other is not self

    def __ge__(self, other: object) -> bool:
        return True

    def __hash__(self) -> int:
        return hash(_Sentinel)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<SENTINEL>"


#: Pad key used to complete partial tuples; sorts above every real key
#: and equals none.  The simulator holds records as Python objects; the
#: sentinel never enters a numpy array.
SENTINEL_KEY = _Sentinel()


def is_terminal(item: object) -> bool:
    """True when a stream item is the terminal marker."""
    return item is TERMINAL


def is_sentinel(key: object) -> bool:
    """True when a record key is the pad sentinel."""
    return key is SENTINEL_KEY


def pad_to_tuple(records: list, width: int) -> list:
    """Pad a partial tuple with sentinels up to ``width`` records."""
    if len(records) > width:
        raise ConfigurationError(
            f"cannot pad {len(records)} records down to width {width}"
        )
    return records + [SENTINEL_KEY] * (width - len(records))


def strip_sentinels(records: list) -> list:
    """Remove pad sentinels from a flushed output run."""
    return [key for key in records if key is not SENTINEL_KEY]
