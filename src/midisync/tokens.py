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
alphabetical order (:data:`INSTRUMENTS`), 128 ON tokens then 128 OFF
tokens by ascending pitch.  Total size: 6 + 125 + 5 * 256 = 1411.
:data:`VOCABULARY` is the tuple of entries in id order, and the
manifest (:func:`format_manifest`, checked by :func:`check_manifest`)
lists it one ``id<TAB>name`` line per entry.  Time and order are read
off the ids: the cursor is the running sum of :data:`SHIFT_MS_BY_ID`
(:func:`cursors_of`), an ON's OFF is ``NUM_PITCHES`` ids above it,
and instruments come in block order.

A stream is held in one of two forms.  ``prepare``, ``encode`` and
``decode`` carry it as an int64 id array between its text and the
codec: :func:`parse_ids` reads the text, :func:`cursors_of` gives the
cursors, :func:`format_ids` writes the text, and :func:`tokens_of` gives
its Token list (:func:`ids_of` goes the other way).  Generation works
on Token lists, one token at a time: one :class:`DecodeState` reads
every token prefix for the grammar (:meth:`DecodeState.valid`, its one
encoding) and the generation models alike.  ``midi_codec.decode_ids``
pairs notes by the same rule over a whole id array.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field

import numpy as np

RESOLUTION_MS = 8
MAX_SHIFT_MS = 1000
#: The time shift durations in ms, ascending: a range, so membership is O(1).
SHIFT_VALUES_MS = range(RESOLUTION_MS, MAX_SHIFT_MS + 1, RESOLUTION_MS)
NUM_PITCHES = 128


class Instrument(enum.Enum):
    """The five instrument categories carried by note tokens."""

    BASS = "bass"
    DRUMS = "drums"
    GUITAR = "guitar"
    PIANO = "piano"
    STRINGS = "strings"

    __hash__ = object.__hash__  # members are singletons; Enum's hash runs Python code


#: Alphabetical category order: the order of the note id blocks and of every listing.
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
#: Id of the first TIMESHIFT; then, per instrument, the id of pitch 0 in
#: its ON block, which its OFF block follows.
_SHIFT_BLOCK = len(_MARKER_KINDS)
_NOTE_BLOCK = {
    inst: _SHIFT_BLOCK + len(SHIFT_VALUES_MS) + 2 * NUM_PITCHES * i
    for i, inst in enumerate(INSTRUMENTS)
}


@dataclass(frozen=True)
class Token:
    """One vocabulary entry.

    ``instrument``/``pitch`` are set only for ON/OFF tokens and
    ``shift_ms`` only for TIMESHIFT tokens, payloads of type ``int``;
    construction rejects anything else (a ``float`` or ``bool`` too) and
    derives ``id`` and ``name`` from the layout.
    :meth:`on`, :meth:`off`, :meth:`shift` and :meth:`from_name` return
    the shared :data:`VOCABULARY` entries, which direct construction equals.
    """

    kind: TokenKind
    instrument: Instrument | None = None
    pitch: int | None = None
    shift_ms: int | None = None
    id: int = field(init=False, compare=False, repr=False)
    name: str = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kind = self.kind
        if kind is TokenKind.ON or kind is TokenKind.OFF:
            if self.instrument not in _NOTE_BLOCK or self.pitch is None or self.shift_ms is not None:
                raise ValueError(f"{kind.value} token requires instrument and pitch only")
            if type(self.pitch) is not int or not 0 <= self.pitch < NUM_PITCHES:
                raise ValueError(f"pitch {self.pitch} outside 0..{NUM_PITCHES - 1}")
            ident = _NOTE_BLOCK[self.instrument] + self.pitch
            if kind is TokenKind.OFF:
                ident += NUM_PITCHES
            name = f"{self.instrument.value.upper()}_{kind.value}_{self.pitch}"
        elif kind is TokenKind.TIMESHIFT:
            if self.shift_ms is None or self.instrument is not None or self.pitch is not None:
                raise ValueError("TIMESHIFT token requires shift_ms only")
            if type(self.shift_ms) is not int or self.shift_ms not in SHIFT_VALUES_MS:
                raise ValueError(
                    f"shift_ms must be a multiple of {RESOLUTION_MS} in "
                    f"[{RESOLUTION_MS}, {MAX_SHIFT_MS}], got {self.shift_ms}"
                )
            ident = _SHIFT_BLOCK + self.shift_ms // RESOLUTION_MS - 1
            name = f"TIMESHIFT_{self.shift_ms}"
        else:
            if self.instrument is not None or self.pitch is not None or self.shift_ms is not None:
                raise ValueError(f"{kind.value} token carries no payload")
            ident = _MARKER_KINDS.index(kind)
            name = kind.value
        object.__setattr__(self, "id", ident)
        object.__setattr__(self, "name", name)

    # -- convenience constructors -------------------------------------
    # In-vocabulary payloads index the shared entries; anything else goes
    # to the validating constructor, which raises.
    @classmethod
    def on(cls, instrument: Instrument, pitch: int) -> "Token":
        base = _NOTE_BLOCK.get(instrument)
        if base is not None and type(pitch) is int and 0 <= pitch < NUM_PITCHES:
            return VOCABULARY[base + pitch]
        return cls(TokenKind.ON, instrument=instrument, pitch=pitch)

    @classmethod
    def off(cls, instrument: Instrument, pitch: int) -> "Token":
        base = _NOTE_BLOCK.get(instrument)
        if base is not None and type(pitch) is int and 0 <= pitch < NUM_PITCHES:
            return VOCABULARY[base + NUM_PITCHES + pitch]
        return cls(TokenKind.OFF, instrument=instrument, pitch=pitch)

    @classmethod
    def shift(cls, shift_ms: int) -> "Token":
        if type(shift_ms) is int and shift_ms in SHIFT_VALUES_MS:
            return VOCABULARY[_SHIFT_BLOCK + shift_ms // RESOLUTION_MS - 1]
        return cls(TokenKind.TIMESHIFT, shift_ms=shift_ms)

    # -- naming --------------------------------------------------------
    @classmethod
    def from_name(cls, name: str) -> "Token":
        """Inverse of :attr:`name`; raises ``ValueError`` on unknown names.

        Canonical names are a dict lookup; other spellings of a payload
        (``TIMESHIFT_0008``, ``PIANO_ON_060``) are parsed.
        """
        tok = _BY_NAME.get(name)
        if tok is not None:
            return tok
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
            make = cls.on if parts[1] == "ON" else cls.off
            return make(instrument, int(parts[2]))
        raise ValueError(f"unknown token name: {name!r}")


#: The vocabulary: every entry in id order, so ``VOCABULARY[tok.id] is tok``.
#: Every constructor above hands these out.
VOCABULARY = (
    *(Token(kind) for kind in _MARKER_KINDS),
    *(Token(TokenKind.TIMESHIFT, shift_ms=ms) for ms in SHIFT_VALUES_MS),
    *(
        Token(kind, instrument=instrument, pitch=p)
        for instrument in INSTRUMENTS
        for kind in (TokenKind.ON, TokenKind.OFF)
        for p in range(NUM_PITCHES)
    ),
)
_BY_NAME = {tok.name: tok for tok in VOCABULARY}
_ID_BY_NAME = {tok.name: tok.id for tok in VOCABULARY}

START, BAR, PAD, CHORD, FEWER_INSTRUMENTS, MORE_INSTRUMENTS = VOCABULARY[:_SHIFT_BLOCK]

#: Cursor advance of each token id in ms: its shift for TIMESHIFT, else 0.
SHIFT_MS_BY_ID = np.array([tok.shift_ms or 0 for tok in VOCABULARY], dtype=np.int64)


# The entries and their text lines as object arrays, gathered by an id array.
_ENTRY_ARRAY = np.empty(len(VOCABULARY), dtype=object)
_ENTRY_ARRAY[:] = VOCABULARY
_LINE_ARRAY = np.array([tok.name + "\n" for tok in VOCABULARY], dtype=object)


def cursors_of(ids: np.ndarray) -> np.ndarray:
    """The cursor (ms) after each token of an id array, as int64."""
    return np.cumsum(SHIFT_MS_BY_ID[ids])


def ids_of(tokens: list[Token]) -> np.ndarray:
    """The int64 id array of a Token list."""
    return np.fromiter((tok.id for tok in tokens), dtype=np.int64, count=len(tokens))


def tokens_of(ids: np.ndarray) -> list[Token]:
    """The vocabulary entries of an id array, in order."""
    return _ENTRY_ARRAY[ids].tolist()


def format_ids(ids: np.ndarray) -> str:
    """The text of an id array: one token name per line."""
    return "".join(_LINE_ARRAY[ids].tolist())


def format_tokens(tokens: list[Token]) -> str:
    """:func:`format_ids` on a Token list: the same text."""
    return format_ids(ids_of(tokens))


def format_manifest() -> str:
    """The vocabulary manifest: tab-separated ``id<TAB>name`` lines, one per entry, id order."""
    return "".join(f"{tok.id}\t{tok.name}\n" for tok in VOCABULARY)


def check_manifest(text: str) -> None:
    """Raise ``ValueError`` unless a manifest lists the built-in vocabulary in id order.

    Blank lines are skipped; line k of the rest must state id k and a
    name of the token with that id (any spelling :meth:`Token.from_name` reads).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) != len(VOCABULARY):
        raise ValueError(f"manifest has {len(lines)} entries, expected {len(VOCABULARY)}")
    for lineno, line in enumerate(lines):
        ident, _, name = line.partition("\t")
        if not ident.isdigit():
            raise ValueError(f"manifest line {lineno + 1}: bad id field {ident!r}")
        tok = Token.from_name(name.strip())
        if tok.id != int(ident):
            raise ValueError(
                f"manifest line {lineno + 1}: {name!r} has id {ident}, expected {tok.id}"
            )
        if int(ident) != lineno:
            raise ValueError(f"manifest line {lineno + 1}: id {ident}, expected {lineno}")


def parse_ids(text: str) -> np.ndarray:
    """Inverse of :func:`format_ids`: the int64 ids of a token text.

    Each line is one name.  Text of canonical names only is one table
    lookup per line.  Otherwise every line is read again in turn: blank
    lines and surrounding spaces are ignored, other spellings of a
    payload (``TIMESHIFT_0008``) are parsed, and the first bad name
    raises ``ValueError`` with its line number.
    """
    lines = text.splitlines()
    try:
        return np.fromiter(map(_ID_BY_NAME.__getitem__, lines), np.int64, len(lines))
    except KeyError:
        pass
    ids = []
    for lineno, line in enumerate(lines, start=1):
        name = line.strip()
        if name:
            try:
                ids.append(Token.from_name(name).id)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return np.array(ids, dtype=np.int64)


def parse_tokens(text: str) -> list[Token]:
    """The tokens of :func:`parse_ids`: the inverse of :func:`format_tokens`."""
    return tokens_of(parse_ids(text))


# ---------------------------------------------------------------------------
# Grammar and decode state
# ---------------------------------------------------------------------------


# Whether each id may come next when no note is open and no CHORD pending:
# at position zero every id but the OFFs, later also not START or PAD.
_FIRST_ROW = [tok.kind is not TokenKind.OFF for tok in VOCABULARY]
_LATER_ROW = [ok and i not in (START.id, PAD.id) for i, ok in enumerate(_FIRST_ROW)]

#: ``(id, weight)`` pairs in increasing id order, as the sampling step reads a distribution.
Pairs = list[tuple[int, float]]

# Enum members as module globals: a member lookup on the class costs
# several times a global lookup, and push runs once per token.
_TIMESHIFT, _ON, _OFF, _CHORD = TokenKind.TIMESHIFT, TokenKind.ON, TokenKind.OFF, TokenKind.CHORD


class DecodeState:
    """Grammar and history facts of a token prefix, updated once per token.

    * ``length`` — number of tokens folded;
    * ``cursor_ms`` — sum of the TIMESHIFTs so far;
    * ``open_notes`` — onset cursors of the sounding notes, a FIFO per
      note keyed by the id of the OFF token that closes it; an OFF
      closes the oldest onset, an OFF with nothing open is ignored, and
      emptied FIFOs are dropped;
    * ``open_count`` — number of sounding notes;
    * ``chord_pending`` — the last CHORD has not been followed by an ON;
    * ``shifted_since_chord`` — a TIMESHIFT followed the last CHORD (also
      true before the first CHORD: no chord is owed notes);
    * ``chord_pitches`` — pitches of the ONs after the last CHORD, kept
      until the first TIMESHIFT after it;
    * ``last_on_pitch`` — pitch of the latest ON, or None.
    """

    __slots__ = (
        "length",
        "cursor_ms",
        "open_notes",
        "open_count",
        "chord_pending",
        "shifted_since_chord",
        "chord_pitches",
        "last_on_pitch",
    )

    def __init__(self) -> None:
        self.length = 0
        self.cursor_ms = 0
        self.open_notes: dict[int, deque[int]] = {}
        self.open_count = 0
        self.chord_pending = False
        self.shifted_since_chord = True
        self.chord_pitches: list[int] = []
        self.last_on_pitch: int | None = None

    def push(self, tok: Token) -> None:
        """Fold one token into the state."""
        self.length += 1
        kind = tok.kind
        if kind is _TIMESHIFT:
            self.cursor_ms += tok.shift_ms
            self.shifted_since_chord = True
        elif kind is _ON:
            key = tok.id + NUM_PITCHES
            fifo = self.open_notes.get(key)
            if fifo is None:
                fifo = self.open_notes[key] = deque()
            fifo.append(self.cursor_ms)
            self.open_count += 1
            self.chord_pending = False
            self.last_on_pitch = tok.pitch
            if not self.shifted_since_chord:
                self.chord_pitches.append(tok.pitch)
        elif kind is _OFF:
            fifo = self.open_notes.get(tok.id)
            if fifo:
                self.open_count -= 1
                fifo.popleft()
                if not fifo:
                    del self.open_notes[tok.id]
        elif kind is _CHORD:
            self.chord_pending = True
            self.shifted_since_chord = False
            self.chord_pitches = []

    def valid(self, pairs: Pairs) -> Pairs:
        """The ``(id, weight)`` pairs whose ids may come next, in their order: the grammar.

        START and PAD are valid only at position zero, an OFF only while its
        note is open, a CHORD only once an ON has followed the previous CHORD
        (a chord marker must announce some notes), and any other id always.
        """
        row = _LATER_ROW if self.length else _FIRST_ROW
        open_notes = self.open_notes
        blocked = CHORD.id if self.chord_pending else -1
        return [p for p in pairs if (row[p[0]] or p[0] in open_notes) and p[0] != blocked]

    def chord_fill_remaining(self, triad: tuple[int, ...]) -> list[int]:
        """Triad pitches still owed to the most recent CHORD marker, if any."""
        if self.shifted_since_chord or len(self.chord_pitches) >= len(triad):
            return []
        return [p for p in triad if p not in self.chord_pitches]
