"""Event vocabulary for the symbolic-music token stream.

A score is serialized as a flat sequence of named events:

* ``<INSTRUMENT>_ON_<pitch>`` / ``<INSTRUMENT>_OFF_<pitch>`` — note
  boundaries for one of five instrument categories,
* ``TIMESHIFT_<ms>`` — advance of the time cursor, quantized to an
  8 ms grid with a 1000 ms ceiling (longer gaps are written as several
  consecutive shifts),
* a small set of structural markers: ``START``, ``BAR``, ``PAD``,
  ``CHORD`` (announces that the notes that follow form a chord) and the
  instrument-count tags ``FEWER_INSTRUMENTS`` / ``MORE_INSTRUMENTS``.

The integer id layout is frozen and documented: ids 0-5 are the markers
in the order above, ids 6-130 are the 125 time shifts in increasing
duration, and the remaining ids are, for each instrument category in
alphabetical order, 128 ON tokens then 128 OFF tokens by ascending
pitch.  Total size: 6 + 125 + 5 * 256 = 1411.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

RESOLUTION_MS = 8
MAX_SHIFT_MS = 1000
SHIFT_VALUES_MS = tuple(range(RESOLUTION_MS, MAX_SHIFT_MS + 1, RESOLUTION_MS))
NUM_PITCHES = 128


class Instrument(enum.Enum):
    """The five instrument categories carried by note tokens."""

    BASS = "bass"
    DRUMS = "drums"
    GUITAR = "guitar"
    PIANO = "piano"
    STRINGS = "strings"

    @property
    def is_drums(self) -> bool:
        return self is Instrument.DRUMS

    def __lt__(self, other: "Instrument") -> bool:
        if not isinstance(other, Instrument):
            return NotImplemented
        return self.value < other.value


#: Alphabetical category order used everywhere an ordering is needed.
INSTRUMENTS = tuple(sorted(Instrument, key=lambda i: i.value))


class TokenKind(enum.Enum):
    START = "START"
    BAR = "BAR"
    PAD = "PAD"
    CHORD = "CHORD"
    FEWER_INSTRUMENTS = "FEWER_INSTRUMENTS"
    MORE_INSTRUMENTS = "MORE_INSTRUMENTS"
    TIMESHIFT = "TIMESHIFT"
    ON = "ON"
    OFF = "OFF"


_MARKER_KINDS = (
    TokenKind.START,
    TokenKind.BAR,
    TokenKind.PAD,
    TokenKind.CHORD,
    TokenKind.FEWER_INSTRUMENTS,
    TokenKind.MORE_INSTRUMENTS,
)


@dataclass(frozen=True)
class Token:
    """One vocabulary entry.

    ``instrument``/``pitch`` are set only for ON/OFF tokens and
    ``shift_ms`` only for TIMESHIFT tokens; construction rejects any
    other combination, so every reachable instance has a valid name.
    """

    kind: TokenKind
    instrument: Instrument | None = None
    pitch: int | None = None
    shift_ms: int | None = None

    def __post_init__(self) -> None:
        if self.kind in (TokenKind.ON, TokenKind.OFF):
            if self.instrument is None or self.pitch is None or self.shift_ms is not None:
                raise ValueError(f"{self.kind.value} token requires instrument and pitch only")
            if not 0 <= self.pitch < NUM_PITCHES:
                raise ValueError(f"pitch {self.pitch} outside 0..{NUM_PITCHES - 1}")
        elif self.kind is TokenKind.TIMESHIFT:
            if self.shift_ms is None or self.instrument is not None or self.pitch is not None:
                raise ValueError("TIMESHIFT token requires shift_ms only")
            if self.shift_ms % RESOLUTION_MS or not RESOLUTION_MS <= self.shift_ms <= MAX_SHIFT_MS:
                raise ValueError(
                    f"shift_ms must be a multiple of {RESOLUTION_MS} in "
                    f"[{RESOLUTION_MS}, {MAX_SHIFT_MS}], got {self.shift_ms}"
                )
        else:
            if self.instrument is not None or self.pitch is not None or self.shift_ms is not None:
                raise ValueError(f"{self.kind.value} token carries no payload")

    # -- convenience constructors -------------------------------------
    @classmethod
    def on(cls, instrument: Instrument, pitch: int) -> "Token":
        return cls(TokenKind.ON, instrument=instrument, pitch=pitch)

    @classmethod
    def off(cls, instrument: Instrument, pitch: int) -> "Token":
        return cls(TokenKind.OFF, instrument=instrument, pitch=pitch)

    @classmethod
    def shift(cls, shift_ms: int) -> "Token":
        return cls(TokenKind.TIMESHIFT, shift_ms=shift_ms)

    # -- naming --------------------------------------------------------
    @property
    def name(self) -> str:
        if self.kind is TokenKind.ON or self.kind is TokenKind.OFF:
            return f"{self.instrument.value.upper()}_{self.kind.value}_{self.pitch}"
        if self.kind is TokenKind.TIMESHIFT:
            return f"TIMESHIFT_{self.shift_ms}"
        return self.kind.value

    @classmethod
    def from_name(cls, name: str) -> "Token":
        """Inverse of :attr:`name`; raises ``ValueError`` on unknown names."""
        try:
            return cls(TokenKind(name))
        except ValueError:
            pass
        if name.startswith("TIMESHIFT_"):
            payload = name[len("TIMESHIFT_"):]
            if not payload.isdigit():
                raise ValueError(f"malformed token name: {name!r}")
            return cls.shift(int(payload))
        parts = name.split("_")
        if len(parts) == 3 and parts[1] in ("ON", "OFF") and parts[2].isdigit():
            try:
                instrument = Instrument(parts[0].lower())
            except ValueError:
                raise ValueError(f"unknown instrument in token name: {name!r}") from None
            kind = TokenKind.ON if parts[1] == "ON" else TokenKind.OFF
            return cls(kind, instrument=instrument, pitch=int(parts[2]))
        raise ValueError(f"unknown token name: {name!r}")


START = Token(TokenKind.START)
BAR = Token(TokenKind.BAR)
PAD = Token(TokenKind.PAD)
CHORD = Token(TokenKind.CHORD)
FEWER_INSTRUMENTS = Token(TokenKind.FEWER_INSTRUMENTS)
MORE_INSTRUMENTS = Token(TokenKind.MORE_INSTRUMENTS)


def _build_token_list() -> list[Token]:
    out = [Token(kind) for kind in _MARKER_KINDS]
    out.extend(Token.shift(ms) for ms in SHIFT_VALUES_MS)
    for instrument in INSTRUMENTS:
        out.extend(Token.on(instrument, p) for p in range(NUM_PITCHES))
        out.extend(Token.off(instrument, p) for p in range(NUM_PITCHES))
    return out


class TokenVocabulary:
    """Bijection between tokens and contiguous integer ids."""

    def __init__(self) -> None:
        self._tokens = _build_token_list()
        self._ids = {tok: i for i, tok in enumerate(self._tokens)}
        if len(self._ids) != len(self._tokens):
            raise AssertionError("duplicate tokens in vocabulary construction")

    def __len__(self) -> int:
        return len(self._tokens)

    def __iter__(self):
        return iter(self._tokens)

    def id_of(self, token: Token) -> int:
        try:
            return self._ids[token]
        except KeyError:
            raise KeyError(f"token not in vocabulary: {token.name}") from None

    def token_of(self, token_id: int) -> Token:
        if not 0 <= token_id < len(self._tokens):
            raise KeyError(f"token id {token_id} outside 0..{len(self._tokens) - 1}")
        return self._tokens[token_id]

    def manifest(self) -> str:
        """Tab-separated ``id<TAB>name`` lines, one per entry, id order."""
        return "\n".join(f"{i}\t{tok.name}" for i, tok in enumerate(self._tokens)) + "\n"

    @classmethod
    def check_manifest(cls, text: str) -> "TokenVocabulary":
        """Parse a manifest and verify it matches the built-in layout."""
        vocab = cls()
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != len(vocab):
            raise ValueError(f"manifest has {len(lines)} entries, expected {len(vocab)}")
        by_name = _tokens_by_name()
        for lineno, line in enumerate(lines):
            ident, _, name = line.partition("\t")
            if not ident.isdigit():
                raise ValueError(f"manifest line {lineno + 1}: bad id field {ident!r}")
            key = name.strip()
            tok = by_name.get(key) or Token.from_name(key)
            if vocab.id_of(tok) != int(ident):
                raise ValueError(
                    f"manifest line {lineno + 1}: {name!r} has id {ident}, "
                    f"expected {vocab.id_of(tok)}"
                )
        return vocab


#: Shared vocabulary instance; the layout is deterministic so one is enough.
VOCABULARY = TokenVocabulary()


@functools.cache
def _tokens_by_name() -> dict[str, Token]:
    """Canonical name -> vocabulary entry, built on first use, not at import.

    Parsers look names up here and fall back to :meth:`Token.from_name`,
    which accepts other spellings (``TIMESHIFT_0008``) and raises the
    ``ValueError`` for unknown names.
    """
    return {tok.name: tok for tok in VOCABULARY}


def format_tokens(tokens: list[Token]) -> str:
    """Serialize a token sequence, one token name per line."""
    return "".join(tok.name + "\n" for tok in tokens)


def parse_tokens(text: str) -> list[Token]:
    """Inverse of :func:`format_tokens`; blank lines are ignored."""
    by_name = _tokens_by_name()
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        name = line.strip()
        if not name:
            continue
        try:
            out.append(by_name.get(name) or Token.from_name(name))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return out
