"""Standard MIDI file codec and the event-stream encoder/decoder.

The module converts between three representations:

``bytes`` (Standard MIDI File)  <->  :class:`ScoreTimeline`  <->  token stream

The encoder writes a stream as an int64 id array (:func:`encode_ids`),
and the decoder reads one back (:func:`decode_ids`); :func:`encode_events`
and :func:`decode_events` are the same on Token lists.  The decoder
pairs notes by the rule of ``tokens.DecodeState``, which generation
folds one token at a time, but in NumPy over the whole array
(:func:`_orphan_rule`, which also settles an SMF file's tracks).

A :class:`ScoreTimeline` is the neutral middle ground: absolute
integer-millisecond note intervals bucketed into the five instrument
categories, plus bar marks and a tempo.  SMF parsing is written from
scratch so that malformed input can be reported with exact byte
offsets; it supports format 0 and 1 files, running status, tempo and
time-signature metadata, and both PPQ and SMPTE divisions.  It reads a
file in one pass.  Each track body is first cut into event lengths: by
one compiled bytes pattern, which tiles a body of channel events that
each carry their own status byte, tempos, time signatures and End of
Track (every track :func:`write_midi` makes), or else by a byte scan,
which checks every byte and so raises every fault with its message and
byte offset.  One decoder, :func:`_decode`, then reads every event of
every track at once, whichever tokeniser cut it, and one :func:`_settle`
says what all notes and program changes mean and settles them.

A :class:`ScoreTimeline` stores its notes as sorted int64 columns
(onset, instrument block, pitch, offset, velocity).  :func:`parse_midi`,
:func:`decode_ids`, :func:`transpose`, :func:`trim_to_duration`,
``chords.boost_chord_velocity`` and :func:`write_midi` work on those
columns and build no per-note objects; the columns come sorted from
:func:`parse_midi`, and a :func:`transpose` with no octave wrap keeps
their order, so neither sorts them again; :func:`transpose_ids` makes
such a shift on an encoded stream instead.  A :class:`NoteEvent` is a
tuple record whose equality is tuple equality: ``ScoreTimeline.notes``
is the list view of the same notes, built on first read.

Instrument bucketing follows General MIDI programs: 0-23 piano, 24-31
guitar, 32-39 bass, every other pitched program strings, and channel 10
(9 when counted from zero) is always drums regardless of program.
"""

from __future__ import annotations

import math
import re
from array import array
from collections import namedtuple
from collections.abc import Iterable
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import itemgetter, lt

import numpy as np

from .tokens import (
    BAR,
    CHORD,
    FEWER_INSTRUMENTS,
    INSTRUMENTS,
    MAX_SHIFT_MS,
    MORE_INSTRUMENTS,
    NUM_PITCHES,
    RESOLUTION_MS,
    START,
    Instrument,
    Token,
    cursors_of,
    ids_of,
    tokens_of,
)

#: The SMF tempo before the first Set Tempo event: 500,000 us per quarter, 120 bpm.
DEFAULT_TEMPO_US = 500_000
DEFAULT_TEMPO_BPM = 60_000_000 / DEFAULT_TEMPO_US
DEFAULT_VELOCITY = 80
MAX_TRANSPOSE = 3
#: Instrument tag threshold: scores with at most this many distinct
#: non-drum categories are tagged FEWER_INSTRUMENTS, otherwise MORE_INSTRUMENTS.
FEWER_INSTRUMENT_LIMIT = 2
#: Longest score parse_midi accepts (one hour).  It bounds the bar-mark
#: loop and the TIMESHIFT tokens a corrupted delta time could demand.
MAX_SCORE_SPAN_MS = 3_600_000
#: Most bar marks parse_midi makes: an hour-long score with bars of 36 ms
#: or more.  A shorter bar over a long score raises instead.
MAX_BAR_MARKS = 100_000

_WRITE_DIVISION = 480  # ticks per quarter note used by write_midi
_CHANNELS = {
    Instrument.PIANO: 0,
    Instrument.GUITAR: 1,
    Instrument.BASS: 2,
    Instrument.STRINGS: 3,
    Instrument.DRUMS: 9,
}
_PROGRAMS = {
    Instrument.PIANO: 0,
    Instrument.GUITAR: 25,
    Instrument.BASS: 33,
    Instrument.STRINGS: 48,
}


class MidiParseError(ValueError):
    """Malformed SMF input; ``offset`` is the byte position of the fault."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def program_to_instrument(program: int, channel: int) -> Instrument:
    """Bucket a General MIDI program/channel pair into a category."""
    if channel == 9:
        return Instrument.DRUMS
    if 0 <= program <= 23:
        return Instrument.PIANO
    if 24 <= program <= 31:
        return Instrument.GUITAR
    if 32 <= program <= 39:
        return Instrument.BASS
    return Instrument.STRINGS


class NoteEvent(namedtuple("NoteEvent", "instrument pitch onset_ms offset_ms velocity")):
    """One note with absolute integer-millisecond boundaries.

    A tuple record whose equality is tuple equality.  The public
    constructor, ``_make`` and ``_replace`` validate every field: the
    instrument is an :class:`Instrument`, and the rest are integers (a
    Python or NumPy int, not a bool or a float) in range.  The ``notes``
    view of a :class:`ScoreTimeline` skips that through ``_unchecked_note``.
    """

    __slots__ = ()

    def __new__(cls, instrument, pitch, onset_ms, offset_ms, velocity=DEFAULT_VELOCITY):
        if instrument.__class__ is not Instrument:
            raise ValueError(f"instrument must be an Instrument, got {instrument!r}")
        if not (pitch.__class__ is onset_ms.__class__ is offset_ms.__class__
                is velocity.__class__ is int):  # else a NumPy int, or a bad field
            for name, value in zip(cls._fields[1:], (pitch, onset_ms, offset_ms, velocity)):
                if value.__class__ is not int and not isinstance(value, np.integer):
                    raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 0 <= pitch < NUM_PITCHES:
            raise ValueError(f"pitch {pitch} outside 0..{NUM_PITCHES - 1}")
        if onset_ms < 0:
            raise ValueError(f"onset_ms must be >= 0, got {onset_ms}")
        if offset_ms <= onset_ms:
            raise ValueError(f"offset_ms must exceed onset_ms ({offset_ms} <= {onset_ms})")
        if not 1 <= velocity <= 127:
            raise ValueError(f"velocity {velocity} outside 1..127")
        return tuple.__new__(cls, (instrument, pitch, onset_ms, offset_ms, velocity))

    @classmethod
    def _make(cls, fields) -> "NoteEvent":
        return cls(*fields)


#: A NoteEvent from its five fields, unchecked: only for fields valid by construction.
_unchecked_note = partial(tuple.__new__, NoteEvent)
_INSTRUMENT_ORDER = {inst: k for k, inst in enumerate(INSTRUMENTS)}
_DRUMS_BLOCK = _INSTRUMENT_ORDER[Instrument.DRUMS]

#: Rows of ``ScoreTimeline.columns``, in the order of the timeline's sort
#: keys; a note's block is its instrument's index in ``INSTRUMENTS``.
ONSET, BLOCK, PITCH, OFFSET, VELOCITY = range(5)


def _timeline_order(columns: np.ndarray) -> np.ndarray:
    """The stable permutation that sorts note columns into timeline order.

    Timeline order is onset, then instrument block, pitch, offset and
    velocity: the rows in turn (``np.lexsort`` reads its last key first).
    """
    return np.lexsort(columns[::-1])


class ScoreTimeline:
    """Normalized score: sorted note columns, bar marks, and a tempo.

    ``columns`` is a ``(5, n)`` int64 array, one column per note in
    timeline order (:func:`_timeline_order`) and one row per field
    (:data:`ONSET`, :data:`BLOCK`, :data:`PITCH`, :data:`OFFSET`,
    :data:`VELOCITY`).  ``notes`` is the same notes as a list of
    :class:`NoteEvent`, in the same order: the notes the constructor was
    given, reordered, or one built from the columns on its first read.
    The constructor makes each given note that is not a ``NoteEvent``
    one with ``NoteEvent._make``, which checks its fields.
    Both are read only.  Two timelines are equal when their notes, tempo
    and bar marks are.
    """

    __slots__ = ("columns", "tempo_bpm", "bar_marks_ms", "_notes")
    __hash__ = None  # equality reads mutable fields

    def __init__(
        self,
        notes: Iterable[NoteEvent] = (),
        tempo_bpm: float = DEFAULT_TEMPO_BPM,
        bar_marks_ms: tuple[int, ...] = (),
    ) -> None:
        self.tempo_bpm, self.bar_marks_ms = tempo_bpm, bar_marks_ms
        self._check()
        notes = [note if isinstance(note, NoteEvent) else NoteEvent._make(note) for note in notes]
        n = len(notes)
        columns = np.empty((5, n), dtype=np.int64)
        columns[BLOCK] = np.fromiter(
            map(_INSTRUMENT_ORDER.__getitem__, map(itemgetter(0), notes)), np.int64, n
        )
        for row, k in ((PITCH, 1), (ONSET, 2), (OFFSET, 3), (VELOCITY, 4)):
            columns[row] = np.fromiter(map(itemgetter(k), notes), np.int64, n)
        order = _timeline_order(columns)
        self.columns = columns[:, order]
        self._notes = list(map(notes.__getitem__, order.tolist()))

    @classmethod
    def _presorted(cls, columns: np.ndarray, tempo_bpm: float, bar_marks_ms) -> ScoreTimeline:
        """A timeline of note ``columns`` already in timeline order: no sort."""
        score = cls.__new__(cls)
        score.columns, score.tempo_bpm, score.bar_marks_ms = columns, tempo_bpm, bar_marks_ms
        score._notes = None
        score._check()
        return score

    def _check(self) -> None:
        if not 0 < self.tempo_bpm < math.inf:
            raise ValueError(f"tempo_bpm must be positive and finite, got {self.tempo_bpm}")
        marks = tuple(self.bar_marks_ms)
        if marks and min(marks) < 0:
            raise ValueError("bar marks must be >= 0")
        if not all(map(lt, marks, marks[1:])):
            raise ValueError("bar marks must be strictly increasing")
        self.bar_marks_ms = marks

    @property
    def notes(self) -> list[NoteEvent]:
        if self._notes is None:
            onset, block, pitch, offset, velocity = self.columns.tolist()
            instruments = map(INSTRUMENTS.__getitem__, block)
            fields = zip(instruments, pitch, onset, offset, velocity)
            self._notes = list(map(_unchecked_note, fields))
        return self._notes

    def __eq__(self, other):
        if other.__class__ is not ScoreTimeline:
            return NotImplemented
        return (
            self.tempo_bpm == other.tempo_bpm
            and self.bar_marks_ms == other.bar_marks_ms
            and np.array_equal(self.columns, other.columns)
        )

    def __repr__(self) -> str:
        return (
            f"ScoreTimeline(notes={self.notes!r}, tempo_bpm={self.tempo_bpm!r}, "
            f"bar_marks_ms={self.bar_marks_ms!r})"
        )

    def instruments_used(self) -> set[Instrument]:
        counts = np.bincount(self.columns[BLOCK], minlength=len(INSTRUMENTS))
        return {INSTRUMENTS[k] for k in np.flatnonzero(counts).tolist()}


@dataclass
class DecodeResult:
    """Decoded timeline plus everything the token stream asserted about it."""

    score: ScoreTimeline
    chord_onsets_ms: list[int]
    ignored_offs: int = 0
    unclosed_notes: int = 0
    dropped_zero_length: int = 0


# ---------------------------------------------------------------------------
# SMF reading
# ---------------------------------------------------------------------------


def _read_varlen(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """Read a variable-length quantity at ``pos``; return it and the next position."""
    value = 0
    for _ in range(4):
        if pos >= len(data):
            raise MidiParseError(f"truncated {what}", pos)
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise MidiParseError(f"variable-length {what} exceeds four bytes", pos - 1)


def _need(data: bytes, pos: int, count: int, what: str) -> int:
    """The position after ``count`` bytes at ``pos``; raises if the file ends first."""
    if pos + count > len(data):
        raise MidiParseError(f"truncated {what}", pos)
    return pos + count


#: One SMF event of the kinds the pattern reader takes: a delta time of one
#: to four bytes, then a channel event with its own status byte (three bytes
#: for 8x, 9x, Ax, Bx and Ex, two for Cx and Dx), a Set Tempo, a Time
#: Signature or an End of Track meta event.  Only what Python 3.10's ``re``
#: has: no possessive quantifiers, no atomic groups.
_EVENT = re.compile(
    rb"[\x80-\xff]{0,3}[\x00-\x7f]"
    rb"(?:[\x80-\xbf\xe0-\xef][\x00-\x7f][\x00-\x7f]"
    rb"|[\xc0-\xdf][\x00-\x7f]"
    rb"|\xff(?:\x51\x03[\x00-\xff]{3}|\x58\x04[\x00-\xff]{4}|\x2f\x00))"
)
#: By channel * 128 + program: instrument block << 7, as in a note-on's code.
_BLOCK_CODES = np.array(
    [_INSTRUMENT_ORDER[program_to_instrument(p, ch)] << 7 for ch in range(16) for p in range(128)],
    dtype=np.int32,
)


def _orphan_rule(key: np.ndarray, is_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which note-offs close no note: one rule for SMF files and id streams.

    ``key`` names each event's note (int16 keys sort in one radix pass);
    ``is_on`` marks the note-ons, and the rest are note-offs.  One more off
    per on follows the n events, to close the notes left open.  Returns
    ``order``, the stable sort of them all by key (index n + j is the off
    added for the j-th on), and, in that order, ``orphan``: an off is one
    when it takes its note's running count of ons less offs to a new low
    under zero.  The added offs leave each note's count at its low, so one
    running sum and one running minimum need no reset between notes: each
    note keeps as many offs as ons, and its k-th on pairs with its k-th.
    """
    order = np.argsort(np.concatenate((key, key[is_on])), kind="stable")
    is_up = np.concatenate((is_on, np.zeros(len(order) - len(key), dtype=bool)))
    step = np.where(is_up[order], np.int32(1), np.int32(-1))
    level = np.cumsum(step, dtype=np.int32)
    return order, level < np.minimum.accumulate(level - step)


def _decode(data: bytes, buf: np.ndarray, bodies: list, track_count: int) -> tuple:
    """Each event's track, tick, status offset and status, in every track at once.

    ``bodies`` holds (track index, body offset, event lengths) of each track
    with events, in file order.  Status offsets come from one cumulative sum
    of the event lengths, and ticks from one of the delta times, less its
    value where each track begins.  Under running status an event's status
    offset holds its first data byte, and its status is that of the latest
    event with a status byte: a channel event, as the tokenisers let no
    data byte follow a meta or sysex event.  A track ends at its first End
    of Track, or else its last event: every event after it gets status 0,
    no event.  Returns the columns as a list (:func:`_settle` empties it),
    each track's end (its last event's tick and status offset, by track
    index), and the Set Tempo and Time Signature candidates: (tick, track,
    value, body offset), the value in usec per quarter or quarters per bar,
    in file order.
    """
    pos_type = np.int32 if len(buf) < 2**31 else np.int64
    tracks, starts, parts = zip(*bodies) if bodies else ((), (), ())
    counts = np.fromiter(map(len, parts), np.int64, len(parts))
    lengths = np.concatenate(parts) if parts else np.zeros(0, np.uint8)
    del parts
    tracks, starts = np.array(tracks, dtype=np.int64), np.array(starts, dtype=np.int64)
    firsts = counts.cumsum() - counts
    lasts = firsts + counts - 1
    track = np.repeat(tracks.astype(np.uint16), counts)
    at = lengths.cumsum(dtype=pos_type)
    at -= lengths  # each event's first byte in the joined bodies ...
    at += np.repeat((starts - at[firsts]).astype(pos_type), counts)  # ... and in the file
    del lengths
    byte = buf[at]
    delta = np.bitwise_and(byte, 0x7F, dtype=np.int32)
    at += 1
    longer = (byte >= 0x80).nonzero()[0]
    while len(longer):  # both tokenisers stop a delta at four bytes
        byte = buf[at[longer]]
        delta[longer] = delta[longer] << 7 | byte & 0x7F
        at[longer] += 1
        longer = longer[byte >= 0x80]
    status = buf[at]
    running = status < 0x80
    if running.any():
        source = np.arange(len(status))
        source[running] = 0
        status = status[np.maximum.accumulate(source)]
    ticks = delta.cumsum(dtype=np.int64)
    ticks -= np.repeat(ticks[firsts] - delta[firsts], counts)

    metas = (status == 0xFF).nonzero()[0]
    meta_types = buf[1:][at[metas]]  # a meta event's second byte
    eots = metas[meta_types == 0x2F]
    stop = lasts.copy()
    np.minimum.at(stop, np.searchsorted(firsts, eots, "right") - 1, eots)  # first End of Track
    for k in (stop < lasts).nonzero()[0].tolist():
        status[stop[k] + 1:lasts[k] + 1] = 0
    ends = np.zeros((2, track_count), dtype=np.int64)
    ends[0, tracks], ends[1, tracks] = ticks[stop], at[stop]
    metas = metas[((meta_types == 0x51) | (meta_types == 0x58)) & (status[metas] == 0xFF)]
    tempos, metres = [], []
    for tick, track_index, type_at in zip(ticks[metas].tolist(), track[metas].tolist(),
                                          (at[metas] + 1).tolist()):
        length, body = _read_varlen(data, type_at + 1, "meta length")
        if data[type_at] == 0x51 and length == 3:
            tempos.append((tick, track_index, int.from_bytes(data[body:body + 3], "big"), body))
        elif data[type_at] == 0x58 and length >= 2:
            metres.append((tick, track_index, data[body] * 4.0 / (1 << data[body + 1]), body))
    return [track, ticks, at, status], ends, tempos, metres


def _settle(buf: np.ndarray, columns: list[np.ndarray], ends: np.ndarray,
            sink: list[str]) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Say what all note and program events mean, and settle every track's notes at once.

    ``columns`` holds the (track, tick, status offset, status) columns of
    :func:`_decode`; it is emptied, so each column frees once read.
    ``ends`` holds each track's last tick and offset.  A
    note-on of velocity 0 is a note-off; a note takes the latest program
    change of its track and channel.  One :func:`_orphan_rule` keyed by
    track, channel and pitch drops orphan note-offs and closes dangling
    notes at their track's end, warning per track: orphans in event order,
    then dangling notes in key order.  Returns the kept note events' ticks
    and codes (key << 10 | block << 7 | velocity, 0 for a note-off), each
    track's in (key, tick) order; then the latest kept tick and the status
    offset of its first event, or of its track's end for a dangling note.
    """
    track, ticks, at, status = columns
    columns.clear()
    kind = status >> 4
    notes = ((kind | 1) == 0x9).nonzero()[0]  # 8x and 9x
    programs = (kind == 0xC).nonzero()[0]
    is_on = kind[notes] == 0x9
    n = len(notes)
    channel = status[notes] & 0x0F
    owner = track[notes]
    patch = channel.astype(np.int16) << 7  # channel * 128 + program
    if len(programs):
        # Each note's latest program change: the last (track, channel, event
        # index) key of a program change below the note's own.
        size = len(status)
        change_keys = (track[programs].astype(np.int64) << 4 | status[programs] & 0x0F) * size
        change_keys = np.sort(change_keys + programs)
        floor = (owner.astype(np.int64) << 4 | channel) * size
        last = np.searchsorted(change_keys, floor + notes) - 1
        found = change_keys[last] >= floor  # on the note's track and channel ...
        found &= last >= 0  # ... and not wrapped round from -1
        program_at = at[change_keys % size]
        patch[found] += buf[program_at + (buf[program_at] >> 7)][last[found]]
        del floor, last, found
    del track, status
    ticks, at = ticks[notes], at[notes]
    del notes
    # Under running status a status offset holds the first data byte, below 0x80.
    first = at + (buf[at] >> 7)
    pitch, velocity = buf[first], buf[1:][first]
    del first
    is_on &= velocity > 0
    key = channel.astype(np.int16) << 7 | pitch  # channel * 128 + pitch
    codes = key.astype(np.int32) << 10
    codes |= np.where(is_on, _BLOCK_CODES[patch] | velocity, 0)
    key_type = np.int16 if ends.shape[1] <= 16 else np.int32  # track << 11 | key fits
    order, orphan = _orphan_rule(owner.astype(key_type) << 11 | key, is_on)
    orphans = np.sort(order[orphan & (order < n)])  # in event order
    closes = order[~orphan & (order >= n)]  # in (track, key) order
    kept = order[~orphan]
    del order, orphan
    ons = is_on.nonzero()[0]
    on_owner = owner[ons]
    owner = np.concatenate((owner, on_owner))  # then each added off's track
    ticks = np.concatenate((ticks, ends[0, on_owner]))
    codes = np.concatenate((codes, key[ons].astype(np.int32) << 10))
    if len(orphans) or len(closes):
        warned = [
            (t, f"track {t}: note-off with no open note (channel {k >> 7}, pitch {k & 127}, "
                f"tick {tick})")
            for t, k, tick in zip(*(a[orphans].tolist() for a in (owner, key, ticks)))
        ] + [
            (t, f"track {t}: note-on without note-off (channel {k >> 7}, pitch {k & 127}); "
                "closed at track end")
            for t, k in zip(owner[closes].tolist(), (codes[closes] >> 10).tolist())
        ]
        # A stable sort by track: its orphans in event order, then its dangling notes in key order.
        sink.extend(text for _, text in sorted(warned, key=itemgetter(0)))
    ticks, codes = ticks[kept], codes[kept]
    if not len(kept):
        return ticks, codes, 0, 0
    last_tick = int(ticks.max())
    tied = kept[ticks == last_tick]
    blamed = int(tied[np.lexsort((tied, owner[tied]))[0]])  # added offs follow their track's events
    last_off = at[blamed] if blamed < n else ends[1, owner[blamed]]
    return ticks, codes, last_tick, int(last_off)


def _scan_track(data: bytes, pos: int, end: int) -> np.ndarray:
    """The event lengths of the MTrk body at ``pos``, read a byte at a time up to ``end``.

    It tokenises every SMF event (running status, sysex, any meta event),
    checks every byte, and stops after End of Track.  A fault raises
    :class:`MidiParseError` at its byte offset.  Of the status in force it
    keeps only how many data bytes it takes; :func:`_decode` reads the
    events.  An event may be longer than 255 bytes: the lengths are int64.
    """
    size = len(data)
    lengths = array("q")  # int64
    in_force = 0  # the data bytes of the running status; 0: none in force

    # Reads are bounded by the file, not the chunk: an event may run past
    # the chunk's end, and the next chunk then starts at ``end``.
    while pos < end:
        start = pos
        byte = data[pos]
        if byte < 0x80:
            pos += 1
        elif pos + 1 < size and data[pos + 1] < 0x80:  # a two-byte delta, inline
            pos += 2
        else:
            pos = _read_varlen(data, pos, "delta time")[1]
        status_off = pos
        if pos >= size:
            raise MidiParseError("truncated event status", pos)
        status = data[pos]
        if status < 0x80:  # running status: this is the first data byte
            if not in_force:
                raise MidiParseError("data byte with no running status", status_off)
        elif status < 0xF0:
            in_force = 1 if 0xC0 <= status < 0xE0 else 2  # Cx and Dx take one data byte
            pos += 1
        elif status == 0xFF:
            pos = _need(data, pos + 1, 1, "meta type")
            meta_len, pos = _read_varlen(data, pos, "meta length")
            pos = _need(data, pos, meta_len, "meta body")
            lengths.append(pos - start)
            if data[status_off + 1] == 0x2F:  # End of Track
                break
            in_force = 0
            continue
        elif status == 0xF0 or status == 0xF7:
            sysex_len, pos = _read_varlen(data, pos + 1, "sysex length")
            pos = _need(data, pos, sysex_len, "sysex body")
            lengths.append(pos - start)
            in_force = 0
            continue
        else:
            raise MidiParseError(f"unexpected status byte 0x{status:02X}", status_off)

        # The data bytes, from ``pos``.
        if pos >= size:
            raise MidiParseError("truncated event data", pos)
        if data[pos] & 0x80:
            raise MidiParseError(f"event data 0x{data[pos]:02X} has its high bit set", pos)
        pos += 1
        if in_force == 2:
            if pos >= size:
                raise MidiParseError("truncated event data", pos)
            if data[pos] & 0x80:
                raise MidiParseError(f"event data 0x{data[pos]:02X} has its high bit set", pos)
            pos += 1
        lengths.append(pos - start)
    return np.frombuffer(lengths, np.int64)


def parse_midi(data: bytes, warnings: list[str] | None = None) -> ScoreTimeline:
    """Parse an SMF byte string into a :class:`ScoreTimeline`.

    The chunks are walked in file order: :data:`_EVENT` tokenises each
    track body, and a body it cannot tile (running status, sysex, other
    meta events, a fault) is tokenised a byte at a time (:func:`_scan_track`),
    so every error comes from the scan, in file order.  Then :func:`_decode`
    reads every event of every track at once, and :func:`_settle` settles
    all tracks in one pass, with warnings per track in file order.  NumPy
    then pairs the note events, each note-off with the earliest open
    note-on of its channel and pitch in time order (equal ticks in track,
    then file order), converts ticks to ms and sorts the notes.  The traced
    peak memory stays within about 32 bytes per input byte.
    Recoverable oddities (dangling note-ons, zero-length notes after
    millisecond rounding, orphan note-offs) are repaired and described in
    the optional ``warnings`` sink.  Structural corruption, and times or
    bars that would run past :data:`MAX_SCORE_SPAN_MS` or
    :data:`MAX_BAR_MARKS`, raise :class:`MidiParseError` with the
    offending byte offset.
    """
    sink = warnings if warnings is not None else []
    size = len(data)

    _need(data, 0, 4, "header chunk id")
    if data[:4] != b"MThd":
        raise MidiParseError("missing MThd header chunk", 0)
    _need(data, 4, 4, "header length")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MidiParseError(f"header chunk too short ({header_len} bytes)", 4)
    _need(data, 8, 2, "format field")
    _need(data, 10, 2, "track count")
    _need(data, 12, 2, "division field")
    pos = _need(data, 14, header_len - 6, "header padding")
    smf_format = int.from_bytes(data[8:10], "big")
    declared_tracks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if smf_format not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {smf_format}", 8)
    if smf_format == 0 and declared_tracks != 1:
        raise MidiParseError(f"format 0 file declares {declared_tracks} tracks", 10)

    ticks_per_quarter: int | None = None
    smpte_ms_per_tick: float | None = None
    if division & 0x8000:
        fps = 256 - (division >> 8)  # stored as negative two's complement
        ticks_per_frame = division & 0xFF
        if fps <= 0 or ticks_per_frame == 0:
            raise MidiParseError("invalid SMPTE division", 12)
        smpte_ms_per_tick = 1000.0 / (fps * ticks_per_frame)
    else:
        ticks_per_quarter = division
        if ticks_per_quarter == 0:
            raise MidiParseError("division of zero ticks per quarter", 12)

    # The pattern tokenises each track body; the scan tokenises, and raises on, the rest.
    buf = np.frombuffer(data, dtype=np.uint8)
    bodies = []  # (track index, body offset, event lengths) of each track with events
    track_index = 0
    while track_index < declared_tracks and pos < size:
        chunk_off = pos
        pos = _need(data, pos, 4, "chunk id")
        pos = _need(data, pos, 4, "chunk length")
        chunk_len = int.from_bytes(data[pos - 4:pos], "big")
        if not data.startswith(b"MTrk", chunk_off):
            # Unknown chunk types are legal and skipped.
            pos = _need(data, pos, chunk_len, "unknown chunk body")
            continue
        end = pos + chunk_len
        if end > size:
            raise MidiParseError("track chunk overruns file", chunk_off + 4)
        lengths = np.frombuffer(bytes(map(len, _EVENT.findall(data, pos, end))), np.uint8)
        if lengths.sum() != chunk_len:  # the pattern cannot tile the body
            bodies.append((track_index, pos, _scan_track(data, pos, end)))  # an empty body tiles
        elif len(lengths):
            bodies.append((track_index, pos, lengths))
        pos = end
        track_index += 1

    columns, ends, tempos, metres = _decode(data, buf, bodies, track_index)
    del bodies
    ticks, codes, last_tick, last_off = _settle(buf, columns, ends, sink)
    if track_index < declared_tracks:  # the file ended first
        sink.append(f"header declares {declared_tracks} tracks but file has {track_index}")

    # The first candidate at the earliest tick wins: (tick, track), then event order.
    earliest = partial(min, key=itemgetter(0, 1))
    tempo_us, tempo_off = earliest(tempos, default=(0, 0, DEFAULT_TEMPO_US, None))[2:]
    tempo_us = tempo_us or DEFAULT_TEMPO_US  # a Set Tempo of 0
    quarters_per_bar, timesig_off = earliest(metres, default=(0, 0, 4.0, None))[2:]

    def tick_to_ms(tick):
        """The ms time of a tick (an int), or of each tick of an int64 array."""
        if smpte_ms_per_tick is None:
            # round-half-up in exact integer arithmetic
            den = ticks_per_quarter * 1000
            return (2 * tick * tempo_us + den) // (2 * den)
        if isinstance(tick, int):
            return round(tick * smpte_ms_per_tick)
        return np.rint(tick * smpte_ms_per_tick).astype(np.int64)  # half to even, as round()

    last_ms = tick_to_ms(last_tick)
    if last_ms > MAX_SCORE_SPAN_MS:
        raise MidiParseError(
            f"note at {last_ms} ms is past the {MAX_SCORE_SPAN_MS} ms limit", last_off
        )

    # No tick exceeds last_tick, so every tick is below 2**47 (32767 ticks
    # per quarter at 1 usec per quarter over an hour) and no int64 product
    # below nears overflow.  Each track's events come sorted by (key, tick):
    # this stable sort merges sorted runs, keeping (track, event) order among
    # equal ticks.  A key has as many offs as ons and they never outrun its
    # ons, so the FIFO match pairs its k-th on and k-th off.
    paired = np.argsort((codes >> 10).astype(np.int64) << 47 | ticks, kind="stable")
    ticks, codes = ticks[paired], codes[paired]
    is_on = (codes & 127) > 0
    on_ticks, off_ticks, codes = ticks[is_on], ticks[~is_on], codes[is_on]
    kept = on_ticks != off_ticks
    dropped = len(kept) - int(np.count_nonzero(kept))
    if dropped:
        sink.append(f"dropped {dropped} zero-length note(s)")
        on_ticks, off_ticks, codes = on_ticks[kept], off_ticks[kept], codes[kept]
    onset = tick_to_ms(on_ticks)
    offset = np.maximum(tick_to_ms(off_ticks), onset + 1)  # rounding collapsed a short note
    columns = np.stack((onset, codes >> 7 & 7, codes >> 10 & 127, offset, codes & 127))
    # Timeline order, as _timeline_order: onset and offset are at most
    # MAX_SCORE_SPAN_MS + 1 < 2**22, so the five fields pack into 61 bits.
    packed = onset << 39 | columns[BLOCK] << 36 | columns[PITCH] << 29 | offset << 7
    packed |= columns[VELOCITY]
    columns = columns[:, np.argsort(packed, kind="stable")]

    bar_marks: list[int] = []
    if len(onset):
        bar_ms = quarters_per_bar * tempo_us / 1000.0
        if bar_ms > 0:
            # Blame the meta event that shrank the bar more, relative to 4/4 at 120 bpm.
            metre_at_fault = quarters_per_bar / 4.0 <= tempo_us / DEFAULT_TEMPO_US
            blamed_off = timesig_off if metre_at_fault else tempo_off
            if bar_ms < 1:
                raise MidiParseError(f"bar of {bar_ms:.3g} ms is shorter than 1 ms", blamed_off)
            span = int(offset.max())
            if span / bar_ms > MAX_BAR_MARKS:
                raise MidiParseError(
                    f"bars of {bar_ms:.3g} ms over {span} ms make more than "
                    f"{MAX_BAR_MARKS} bar marks",
                    blamed_off,
                )
            t = 0.0
            while t <= span:
                mark = round(t)
                if not bar_marks or mark > bar_marks[-1]:
                    bar_marks.append(mark)
                t += bar_ms

    return ScoreTimeline._presorted(columns, 60_000_000.0 / tempo_us, tuple(bar_marks))


# ---------------------------------------------------------------------------
# SMF writing
# ---------------------------------------------------------------------------


#: Per instrument block: its channel, and its program change message as
#: status | program << 8 (-1: none, for drums).
_CHANNEL_BY_BLOCK = np.array([_CHANNELS[inst] for inst in INSTRUMENTS], dtype=np.int64)
_PROGRAM_CHANGES = [
    0xC0 | _CHANNELS[inst] | _PROGRAMS[inst] << 8 if inst in _PROGRAMS else -1
    for inst in INSTRUMENTS
]
#: The largest delta time a variable-length quantity of four bytes holds.
MAX_DELTA_TICKS = 0x0FFFFFFF
#: The latest note time write_midi converts: its tick numerator stays exact in a float64.
_MAX_WRITE_MS = 2**53 // (_WRITE_DIVISION * 1000)
#: A delta's four 7-bit groups, high first, each with its continuation bit but the last.
_VARLEN_SHIFTS = np.array([21, 14, 7, 0], dtype=np.int64)
_VARLEN_LAST = np.array([0, 0, 0, 0x80], dtype=np.int64)
_PAYLOAD_SHIFTS = np.array([0, 8, 16], dtype=np.int64)
_END_OF_TRACK = b"\x00\xff\x2f\x00"


def write_midi(score: ScoreTimeline) -> bytes:
    """Render a :class:`ScoreTimeline` as format 1 SMF bytes.

    Each instrument category is written to its own fixed channel (drums
    on channel 10) with a representative General MIDI program, at 480
    ticks per quarter, so that re-parsing buckets every note back into
    its original category.  A note lasts at least one tick.

    The file holds a tempo track, then one track per category in block
    order.  A track's messages are ordered by tick, then program change,
    note-off, note-on, then score order.  A tempo, or a delta time over
    :data:`MAX_DELTA_TICKS`, that no SMF can hold raises ``ValueError``.
    """
    tempo_us = round(60_000_000 / score.tempo_bpm)
    if not 0 < tempo_us < 1 << 24:
        raise ValueError(
            f"tempo {score.tempo_bpm} bpm is {tempo_us} us per quarter, outside the "
            f"1 to {(1 << 24) - 1} that an SMF holds"
        )
    meta = b"\x00\xff\x51\x03" + tempo_us.to_bytes(3, "big")  # tempo, then 4/4
    meta += b"\x00\xff\x58\x04\x04\x02\x18\x08"
    columns = score.columns
    block, pitch = columns[BLOCK], columns[PITCH]
    n = len(block)
    latest = int(columns[OFFSET].max()) if n else 0
    if latest > _MAX_WRITE_MS:
        raise ValueError(f"note time {latest} ms is past the {_MAX_WRITE_MS} ms limit")
    counts = np.bincount(block, minlength=len(INSTRUMENTS)).tolist()
    programs = [k for k, count in enumerate(counts) if count and _PROGRAM_CHANGES[k] >= 0]
    p = len(programs)

    # One column per message: program changes, note-offs, then note-ons.
    # Rows: rank (program changes first, then offs, then ons, each in
    # score order), tick, track (the instrument block) and payload
    # (status | data 1 << 8 | data 2 << 16).
    msgs = np.empty((4, p + 2 * n), dtype=np.int64)
    rank, tick, track, payload = msgs
    rank[:p] = [k - len(INSTRUMENTS) for k in programs]
    rank[p:] = np.arange(2 * n)
    tick[:p] = 0
    track[:p] = programs
    payload[:p] = [_PROGRAM_CHANGES[k] for k in programs]
    # round() of the same float quotient: the numerator is exact, and rint rounds half to even
    ticks = tick[p:].reshape(2, n)
    ticks[:] = np.rint(columns[[OFFSET, ONSET]] * (_WRITE_DIVISION * 1000) / tempo_us)
    off_tick, on_tick = ticks
    np.maximum(off_tick, on_tick + 1, out=off_tick)
    track[p:].reshape(2, n)[:] = block
    off_code, on_code = payload[p:].reshape(2, n)
    np.left_shift(pitch, 8, out=off_code)
    off_code |= _CHANNEL_BY_BLOCK[block]
    np.left_shift(columns[VELOCITY], 16, out=on_code)
    on_code |= off_code
    on_code |= 0x90
    off_code |= 0x80
    rank, tick, _, payload = msgs[:, np.lexsort(msgs[:3])]

    delta = tick.copy()
    delta[1:] -= tick[:-1]
    # Tracks run in block order: the index of each one's first message.
    lengths = [2 * count + (k in programs) for k, count in enumerate(counts) if count]
    firsts = list(accumulate(lengths, initial=0))[:-1]
    delta[firsts] = tick[firsts]  # each track starts at tick 0
    if (delta > MAX_DELTA_TICKS).any():
        raise ValueError(
            f"delta time of {int(delta.max())} ticks exceeds the SMF limit of "
            f"0x{MAX_DELTA_TICKS:08X} (four variable-length bytes)"
        )
    # Seven byte slots per message: a delta of one to four bytes,
    # right-aligned, then the status byte and one or two data bytes.
    slots = np.empty((len(delta), 7), dtype=np.uint8)
    used = np.empty((len(delta), 7), dtype=bool)
    groups = delta[:, None] >> _VARLEN_SHIFTS
    np.not_equal(groups, 0, out=used[:, :4])
    used[:, 3:6] = True
    np.greater_equal(rank, 0, out=used[:, 6])  # a program change has one data byte
    groups |= 0x80
    groups ^= _VARLEN_LAST
    slots[:, :4] = groups  # the low byte of each
    slots[:, 4:] = payload[:, None] >> _PAYLOAD_SHIFTS
    body = slots[used].tobytes()

    nbytes = np.count_nonzero(used, axis=1)
    bounds = (np.cumsum(nbytes) - nbytes)[firsts].tolist() + [len(body)]
    tracks = [meta] + [body[a:b] for a, b in zip(bounds, bounds[1:])]
    header = b"MThd" + (6).to_bytes(4, "big") + (1).to_bytes(2, "big")  # format 1
    header += len(tracks).to_bytes(2, "big") + _WRITE_DIVISION.to_bytes(2, "big")
    chunks = (b"MTrk" + (len(t) + 4).to_bytes(4, "big") + t + _END_OF_TRACK for t in tracks)
    return header + b"".join(chunks)


# ---------------------------------------------------------------------------
# Token encoding / decoding
# ---------------------------------------------------------------------------


def quantize_ms(t_ms: int) -> int:
    """Snap a millisecond time to the 8 ms grid (ties round up)."""
    if t_ms < 0:
        raise ValueError(f"time must be >= 0, got {t_ms}")
    return (t_ms + RESOLUTION_MS // 2) // RESOLUTION_MS * RESOLUTION_MS


def instrument_count_tag(score: ScoreTimeline) -> Token:
    """Tag by distinct non-drum categories (<= 2 means FEWER_INSTRUMENTS)."""
    pitched = score.instruments_used() - {Instrument.DRUMS}
    return FEWER_INSTRUMENTS if len(pitched) <= FEWER_INSTRUMENT_LIMIT else MORE_INSTRUMENTS


#: Id of pitch 0 in each block's ON block; its OFF block follows NUM_PITCHES above.
_ON_BASES = np.array([Token.on(inst, 0).id for inst in INSTRUMENTS], dtype=np.int64)
#: The id of TIMESHIFT_<k * RESOLUTION_MS> is _SHIFT_BASE + k.
_SHIFT_BASE = Token.shift(RESOLUTION_MS).id - 1
_LONGEST_SHIFT = Token.shift(MAX_SHIFT_MS).id


def encode_ids(score: ScoreTimeline, include_bars: bool = True) -> np.ndarray:
    """The ids of ``[START, <count tag>, ...events...]`` as an int64 array.

    All times are quantized to the 8 ms grid.  Events are sorted on
    ``(time, priority, token id)`` with priority BAR, then OFF, then ON;
    the ON and OFF id blocks run by instrument, then pitch.  That keeps
    the stream deterministic and lets consecutive notes of the same
    pitch close before they reopen.  Bar marks that quantize to one
    time give one BAR.  A gap of ``g`` ms before an event is written as
    ``(g - 1) // 1000`` shifts of 1000 ms, then one shift of the rest.
    """
    half, res = RESOLUTION_MS // 2, RESOLUTION_MS
    columns = score.columns
    n = columns.shape[1]
    marks = np.array(score.bar_marks_ms if include_bars else (), dtype=np.int64)
    marks += half
    marks //= res
    marks *= res
    # Marks are strictly increasing, so only neighbours can quantize to one time.
    marks = marks[np.diff(marks, prepend=-1) > 0]

    # One int per event, built in place (ONs, OFFs, then BARs):
    # time << 13 | priority << 11 | token id (ids < 2048).
    keys = np.empty(2 * n + len(marks), dtype=np.int64)
    on, off = keys[:n], keys[n:2 * n]
    on[:] = columns[ONSET]
    off[:] = columns[OFFSET]
    for t in (on, off):  # snap to the grid, ties up
        t += half
        t //= res
        t *= res
    np.maximum(off, on + res, out=off)  # preserve a note despite quantization
    on <<= 13
    off <<= 13
    ids = _ON_BASES[columns[BLOCK]]
    ids += columns[PITCH]
    ids |= 2 << 11
    on |= ids
    ids += NUM_PITCHES - (1 << 11)  # each note's OFF id, at priority 1
    off |= ids
    np.left_shift(marks, 13, out=keys[2 * n:])
    keys[2 * n:] |= BAR.id
    keys.sort()

    ids = keys & 2047
    keys >>= 13  # each event's time
    gaps = np.diff(keys, prepend=0)
    del keys, on, off
    # Before each event, ceil(gap / 1000) shifts: 1000 ms ones, the rest last.
    shifts = gaps + (MAX_SHIFT_MS - 1)
    shifts //= MAX_SHIFT_MS
    out = np.full(2 + len(ids) + int(shifts.sum()), _LONGEST_SHIFT, dtype=np.int64)
    shifts += 1
    at = np.cumsum(shifts)  # each event's index in the output, less one
    shifts -= 2
    shifts *= MAX_SHIFT_MS
    gaps -= shifts  # the last shift of each gap in ms (1000 where there is no gap) ...
    gaps //= res
    gaps += _SHIFT_BASE  # ... and its id
    out[at] = gaps  # where there is no gap, the slot of the event before: written next
    at += 1
    out[at] = ids
    out[0], out[1] = START.id, instrument_count_tag(score).id
    return out


def encode_events(score: ScoreTimeline, include_bars: bool = True) -> list[Token]:
    """The tokens of :func:`encode_ids`: ``[START, <count tag>, ...events...]``."""
    return tokens_of(encode_ids(score, include_bars))


#: The id of pitch 0 in the first ON block: a note id less this is block << 8 | OFF << 7 | pitch.
_NOTE_BASE = int(_ON_BASES[0])


def decode_ids(ids: np.ndarray) -> DecodeResult:
    """Rebuild a timeline from an id array, by the pairing rule of ``tokens.DecodeState``.

    The ONs of one note (instrument and pitch) pair with its OFFs first
    in, first out.  An OFF with no open note is an orphan: counted and
    skipped.  Notes still open at the end of the stream close at its
    last cursor, zero-length notes are counted and dropped, and every
    note has the default velocity.  CHORD markers do not affect the
    timeline but their cursors are reported; the distinct BAR cursors
    are its bar marks.
    """
    cursors = cursors_of(ids)
    last = int(cursors[-1]) if len(ids) else 0
    at = np.flatnonzero(ids >= _NOTE_BASE)
    codes = ids[at] - _NOTE_BASE
    is_on = codes & NUM_PITCHES == 0
    on_codes = codes[is_on]
    n_on = len(on_codes)
    # Each note is keyed by its OFF's code; the OFFs the rule adds close
    # the notes left open at the last cursor.
    order, orphan = _orphan_rule((codes | NUM_PITCHES).astype(np.int16), is_on)
    codes = np.concatenate((codes, on_codes | NUM_PITCHES))[order]
    cursor = np.concatenate((cursors[at], np.full(n_on, last)))[order]
    on = codes & NUM_PITCHES == 0
    off = ~(on | orphan)
    unclosed = int(np.count_nonzero(off & (order >= len(at))))
    key, onset, offset = codes[on], cursor[on], cursor[off]  # k-th ON, k-th kept OFF
    kept = offset > onset
    dropped = n_on - int(np.count_nonzero(kept))
    key, onset, offset = key[kept], onset[kept], offset[kept]
    # Pairs come in note order, onsets ascending within a note: a stable
    # sort by onset gives timeline order.
    velocity = np.full_like(key, DEFAULT_VELOCITY)
    columns = np.stack((onset, key >> 8, key & (NUM_PITCHES - 1), offset, velocity))
    columns = columns[:, np.argsort(onset, kind="stable")]
    marks = tuple(dict.fromkeys(cursors[ids == BAR.id].tolist()))  # cursors never fall
    return DecodeResult(
        score=ScoreTimeline._presorted(columns, DEFAULT_TEMPO_BPM, marks),
        chord_onsets_ms=cursors[ids == CHORD.id].tolist(),
        ignored_offs=len(at) - 2 * n_on + unclosed,
        unclosed_notes=unclosed,
        dropped_zero_length=dropped,
    )


def decode_events(tokens: list[Token]) -> DecodeResult:
    """:func:`decode_ids` on a Token list."""
    return decode_ids(ids_of(tokens))


def trim_to_duration(score: ScoreTimeline, duration_ms: int) -> ScoreTimeline:
    """Clamp the timeline to ``duration_ms``.

    Notes that start at or after the limit are dropped; notes that cross
    it are cut short at the limit.  Bar marks past the limit are dropped.
    Generation may overshoot its requested duration by up to one time
    shift, and this is the trim applied before the result is written out.

    Clamping only lowers offsets, so the kept notes stay in order unless
    a clamped note now ties the note before it on onset, instrument,
    pitch and offset, where velocity decides; only then is the result
    sorted again.
    """
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    # Onsets are sorted: the notes that start before the limit are a prefix.
    kept = int(np.searchsorted(score.columns[ONSET], duration_ms))
    columns = score.columns[:, :kept].copy()
    offset = columns[OFFSET]
    clamped = offset > duration_ms
    offset[clamped] = duration_ms
    ties = (columns[:VELOCITY, 1:] == columns[:VELOCITY, :-1]).all(axis=0)
    if (ties & clamped[1:]).any():
        columns = columns[:, _timeline_order(columns)]
    marks = tuple(m for m in score.bar_marks_ms if m <= duration_ms)
    return ScoreTimeline._presorted(columns, score.tempo_bpm, marks)


def transpose(score: ScoreTimeline, semitones: int) -> ScoreTimeline:
    """Shift every non-drum pitch by up to +/-:data:`MAX_TRANSPOSE` semitones.

    Drums are percussion maps, not pitched material, so they pass
    through unchanged.  Pitches pushed outside 0..127 are clamped back
    by whole octaves to preserve pitch class.
    """
    if abs(semitones) > MAX_TRANSPOSE:
        raise ValueError(f"semitones must be within +/-{MAX_TRANSPOSE}, got {semitones}")
    columns = score.columns.copy()
    pitch = columns[PITCH]
    pitch[columns[BLOCK] != _DRUMS_BLOCK] += semitones
    low, high = pitch < 0, pitch >= NUM_PITCHES
    # One shift per instrument block keeps the order, unless a pitch wrapped.
    if low.any() or high.any():
        pitch[low] += 12
        pitch[high] -= 12
        columns = columns[:, _timeline_order(columns)]
    return ScoreTimeline._presorted(columns, score.tempo_bpm, score.bar_marks_ms)


def transpose_ids(ids: np.ndarray, semitones: int) -> np.ndarray | None:
    """A stream's ids with every non-drum ON/OFF id moved by ``semitones``.

    When no pitched note leaves 0..127, :func:`transpose` shifts each
    instrument block as one, so the note order, the event sort (ids stay
    in their block), the chord clusters and the CHORD positions do not
    change: the result is then exactly the stream that ``prepare``
    builds from the transposed score, chord markers and dropout included,
    and its offsets are the original's.  When a pitched note would leave
    that range, :func:`transpose` wraps it by an octave, which can
    reorder notes and change chords, so this returns None.
    """
    if abs(semitones) > MAX_TRANSPOSE:
        raise ValueError(f"semitones must be within +/-{MAX_TRANSPOSE}, got {semitones}")
    codes = ids - _NOTE_BASE  # block << 8 | OFF << 7 | pitch, for note ids
    pitched = (codes >= 0) & (codes >> 8 != _DRUMS_BLOCK)
    pitch = codes[pitched] & (NUM_PITCHES - 1)
    pitch += semitones
    if ((pitch < 0) | (pitch >= NUM_PITCHES)).any():
        return None
    out = ids.copy()
    out[pitched] += semitones
    return out
