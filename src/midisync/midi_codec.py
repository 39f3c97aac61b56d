"""Standard MIDI file codec and the event-stream encoder/decoder.

The module converts between three representations:

``bytes`` (Standard MIDI File)  <->  :class:`ScoreTimeline`  <->  token stream

The encoder writes a stream as an int64 id array (:func:`encode_ids`),
and the decoder reads one back (:func:`decode_ids`); :func:`encode_events`
and :func:`decode_events` are the same on Token lists.  The decoder
pairs notes by the rule of ``tokens.DecodeState``, which generation
folds one token at a time, but in NumPy over the whole array
(:func:`_orphan_rule`, which also settles each SMF track).

A :class:`ScoreTimeline` is the neutral middle ground: absolute
integer-millisecond note intervals bucketed into the five instrument
categories, plus bar marks and a tempo.  SMF parsing is written from
scratch so that malformed input can be reported with exact byte
offsets; it supports format 0 and 1 files, running status, tempo and
time-signature metadata, and both PPQ and SMPTE divisions.  It has two
track readers.  One compiled bytes pattern, then NumPy, reads a track of
channel events that each carry their own status byte, tempo and time
signature events and one End of Track at its end: every track
:func:`write_midi` makes.  A byte scan reads every other track, and so
every fault: each error's message and byte offset come from the scan.
Both only find events: one :func:`_meta` reads a tempo or metre, and one
:func:`_settle_track` says what a track's notes and program changes mean
and settles its notes, with the warnings.

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
    constructor, ``_make`` and ``_replace`` validate every field; the
    ``notes`` view of a :class:`ScoreTimeline` skips that through
    ``_unchecked_note``.
    """

    __slots__ = ()

    def __new__(cls, instrument, pitch, onset_ms, offset_ms, velocity=DEFAULT_VELOCITY):
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
    :class:`NoteEvent`, in the same order: the list the constructor was
    given, reordered, or one built from the columns on its first read.
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
        notes = list(notes)
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
        if self.tempo_bpm <= 0:
            raise ValueError(f"tempo_bpm must be positive, got {self.tempo_bpm}")
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


class _Tracks:
    """What :func:`parse_midi` keeps of the tracks read so far, in file order.

    Per track, as :func:`_settle_track` keeps them, an int64 array of the
    ticks and an int32 array of the codes of its note events: ons, the
    offs that close a note, then the offs that close its dangling notes.
    A code is key << 10 | instrument block << 7 | velocity, where key is
    channel * 128 + pitch and a velocity of 0 marks a note-off.  Then the
    tempo and time-signature candidates (:func:`_meta`), and the latest
    kept note event's tick and the byte offset of its status.
    """

    __slots__ = ("sink", "ticks", "codes", "tempos", "timesigs", "last_tick", "last_off")

    def __init__(self, sink: list[str]) -> None:
        self.sink = sink
        # An empty first part: a file with no track still concatenates.
        self.ticks = [np.empty(0, dtype=np.int64)]
        self.codes = [np.empty(0, dtype=np.int32)]
        self.tempos: list[tuple[int, int, int]] = []  # value: usec per quarter
        self.timesigs: list[tuple[int, float, int]] = []  # value: quarters per bar
        self.last_tick = self.last_off = 0


def _meta(tracks: _Tracks, data: bytes, tick: int, meta_type: int, body: int, length: int) -> None:
    """Keep a Set Tempo's or Time Signature's (tick, value, body offset) in ``tracks``."""
    if meta_type == 0x51 and length == 3:
        tracks.tempos.append((tick, int.from_bytes(data[body:body + 3], "big"), body))
    elif meta_type == 0x58 and length >= 2:
        tracks.timesigs.append((tick, data[body] * 4.0 / (1 << data[body + 1]), body))


def _orphan_rule(key: np.ndarray, is_on: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Which note-offs close no note: one rule for SMF tracks and id streams.

    ``key`` names each event's note (below 2**15); ``is_on`` marks the
    note-ons, and the rest are note-offs.  One more off per on follows the
    n events, to close the notes left open.  Returns ``order``, the stable
    sort of them all by key (index n + j is the off added for the j-th
    on), and, in that order, ``orphan``: an off is one when it takes its
    note's running count of ons less offs to a new low under zero.  The
    added offs leave each note's count at its low, so one running sum and
    one running minimum need no reset between notes.  Then each note has
    as many kept offs as ons, and its k-th on pairs with its k-th kept off.
    """
    key = key.astype(np.int16, copy=False)  # a radix sort
    order = np.argsort(np.concatenate((key, key[is_on])), kind="stable")
    is_up = np.concatenate((is_on, np.zeros(len(order) - len(key), dtype=bool)))
    step = np.where(is_up[order], np.int32(1), np.int32(-1))
    level = np.cumsum(step, dtype=np.int32)
    return order, level < np.minimum.accumulate(level - step)


def _first_data(buf: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Turn the status offsets ``at`` into those of the first data bytes, in place."""
    at += buf[at] >> 7  # under running status a status offset holds a data byte, below 0x80
    return at


def _settle_track(buf: np.ndarray, ticks: np.ndarray, at: np.ndarray, status: np.ndarray,
                  end_tick: int, end_off: int, track_index: int, tracks: _Tracks) -> None:
    """Say what one track's channel events mean, and keep its notes in ``tracks``.

    ``ticks``, ``at`` and ``status`` hold the tick, status offset and
    status in force of each event, in order; only note-offs, note-ons and
    program changes count.  ``buf`` is the file as uint8; ``end_tick`` and
    ``end_off`` are those of the track's last event.  A note-on of
    velocity 0 is a note-off; a note takes its channel's latest program.
    By :func:`_orphan_rule`, orphan note-offs are dropped, with one warning
    each in event order, and dangling notes close at the last event, with
    one warning each in key order.  The latest kept tick, and the status
    offset of the first event at it, feed the span check.
    """
    kind = status >> 4
    is_note = (kind | 1) == 0x9  # 8x and 9x
    n = int(np.count_nonzero(is_note))
    if not n:
        return
    first = _first_data(buf, at[is_note])
    channel, pitch, velocity = status[is_note] & 0x0F, buf[first], buf[1:][first]
    is_on = (kind[is_note] == 0x9) & (velocity > 0)
    key = channel.astype(np.int16) << 7 | pitch  # channel * 128 + pitch
    block = _BLOCK_CODES[key - pitch]  # channel * 128 + program 0
    programs = np.flatnonzero(kind == 0xC)
    if len(programs):
        # Each note's channel's latest program change: the last (channel,
        # event index) key of a program change below the note's own.
        notes = np.flatnonzero(is_note)
        change_channel = status[programs] & 0x0F
        by_channel = np.argsort(change_channel, kind="stable")
        programs = programs[by_channel]
        change_keys = change_channel[by_channel].astype(np.int64) * len(kind) + programs
        floor = channel.astype(np.int64) * len(kind)
        last = np.searchsorted(change_keys, floor + notes) - 1
        found = change_keys[last] >= floor  # on the note's channel ...
        found &= last >= 0  # ... and not wrapped round from -1
        program = buf[_first_data(buf, at[programs])]
        block[found] = _BLOCK_CODES[key[found] - pitch[found] + program[last[found]]]
    codes = key.astype(np.int32) << 10
    codes |= np.where(is_on, block | velocity, 0)
    order, orphan = _orphan_rule(key, is_on)
    ticks = ticks[is_note]  # after _orphan_rule, whose temporaries set the traced peak
    added = order >= n
    orphans = np.sort(order[orphan & ~added])  # in event order
    closes = order[added & ~orphan]  # in key order
    if len(orphans):
        tracks.sink.extend(
            f"track {track_index}: note-off with no open note "
            f"(channel {k >> 7}, pitch {k & 127}, tick {tick})"
            for k, tick in zip(key[orphans].tolist(), ticks[orphans].tolist())
        )
        ticks, codes, first = (np.delete(a, orphans) for a in (ticks, codes, first))
    if len(ticks):
        latest = int(np.argmax(ticks))  # the first event at the latest tick
        if ticks[latest] > tracks.last_tick:
            # Its status byte comes just before its first data byte, unless a delta's last byte
            # (below 0x80) does: under running status the status offset is the data byte's own.
            data1 = int(first[latest])
            tracks.last_tick, tracks.last_off = int(ticks[latest]), data1 - int(buf[data1 - 1] >> 7)
    if len(closes):
        if end_tick > tracks.last_tick:
            tracks.last_tick, tracks.last_off = end_tick, end_off  # dangling notes close here
        dangling = key[is_on][closes - n]
        tracks.sink.extend(
            f"track {track_index}: note-on without note-off "
            f"(channel {k >> 7}, pitch {k & 127}); closed at track end"
            for k in dangling.tolist()
        )
        ticks = np.concatenate((ticks, np.full(len(dangling), end_tick)))
        codes = np.concatenate((codes, dangling.astype(np.int32) << 10))
    tracks.ticks.append(ticks)
    tracks.codes.append(codes)


def _match_track(data: bytes, buf: np.ndarray, pos: int, end: int, track_index: int,
                 tracks: _Tracks) -> bool:
    """Read the MTrk body ``data[pos:end]`` in NumPy, if :data:`_EVENT` takes it.

    It takes a track whose events tile the body and whose last event, and
    only that one, is End of Track; otherwise it returns False and keeps
    nothing.  ``buf`` is ``data`` as uint8.  It finds each event's tick,
    status offset and status, keeps the meta events' candidates by
    :func:`_meta`, and hands the events to :func:`_settle_track`.
    """
    matches = _EVENT.findall(data, pos, end)
    lengths = np.frombuffer(bytes(map(len, matches)), dtype=np.uint8)
    del matches
    n = len(lengths)
    at = np.cumsum(lengths, dtype=np.int64)
    if not n or at[-1] != end - pos:
        return False
    at -= lengths
    at += pos  # each event's first byte, then its status byte
    byte = buf[at]
    delta = np.bitwise_and(byte, 0x7F, dtype=np.int32)
    at += 1
    longer = np.flatnonzero(byte >= 0x80)
    while len(longer):  # the pattern stops a delta at four bytes
        byte = buf[at[longer]]
        delta[longer] = delta[longer] << 7 | byte & 0x7F
        at[longer] += 1
        longer = longer[byte >= 0x80]
    status = buf[at]
    metas = np.flatnonzero(status == 0xFF)
    meta_types = buf[1:][at[metas]].tolist()  # a meta event's second byte
    if meta_types.count(0x2F) != 1 or meta_types[-1] != 0x2F or metas[-1] != n - 1:
        return False

    ticks = np.cumsum(delta, dtype=np.int64)
    for tick, body, meta_type in zip(ticks[metas].tolist(), (at[metas] + 3).tolist(), meta_types):
        _meta(tracks, data, tick, meta_type, body, data[body - 1])
    _settle_track(buf, ticks, at, status, int(ticks[-1]), int(at[-1]), track_index, tracks)
    return True


def _scan_track(data: bytes, pos: int, end: int, track_index: int, tracks: _Tracks) -> None:
    """Read the MTrk body from ``pos`` a byte at a time, up to ``end``.

    It reads every SMF event (running status, sysex, any meta event) and
    stops at End of Track.  A fault raises :class:`MidiParseError` at its
    byte offset.  It keeps the meta events' candidates by :func:`_meta`,
    and of each note-off, note-on and program change it records the tick,
    the status offset and the status in force in typed columns, which
    :func:`_settle_track` reads.
    """
    size = len(data)
    ticks, offs, statuses = array("q"), array("q"), array("B")  # int64, int64, uint8
    tick = 0
    running_status: int | None = None

    # Reads are bounded by the file, not the chunk: an event may run past
    # the chunk's end, and the next chunk then starts at ``end``.
    while pos < end:
        byte = data[pos]
        if byte < 0x80:
            tick += byte
            pos += 1
        elif pos + 1 < size and data[pos + 1] < 0x80:  # a two-byte delta, inline
            tick += (byte & 0x7F) << 7 | data[pos + 1]
            pos += 2
        else:
            delta, pos = _read_varlen(data, pos, "delta time")
            tick += delta
        status_off = pos
        if pos >= size:
            raise MidiParseError("truncated event status", pos)
        status = data[pos]
        pos += 1
        if status < 0x80:
            if running_status is None:
                raise MidiParseError("data byte with no running status", status_off)
            status = running_status
        elif status < 0xF0:
            running_status = status
            if pos >= size:
                raise MidiParseError("truncated event data", pos)
            if data[pos] & 0x80:
                raise MidiParseError(f"event data 0x{data[pos]:02X} has its high bit set", pos)
            pos += 1
        elif status == 0xFF:
            pos = _need(data, pos, 1, "meta type")
            meta_type = data[pos - 1]
            meta_len, pos = _read_varlen(data, pos, "meta length")
            pos = _need(data, pos, meta_len, "meta body")
            running_status = None
            if meta_type == 0x2F:
                break
            _meta(tracks, data, tick, meta_type, pos - meta_len, meta_len)
            continue
        elif status == 0xF0 or status == 0xF7:
            sysex_len, pos = _read_varlen(data, pos, "sysex length")
            pos = _need(data, pos, sysex_len, "sysex body")
            running_status = None
            continue
        else:
            raise MidiParseError(f"unexpected status byte 0x{status:02X}", status_off)

        kind = status >> 4
        if kind != 0xC and kind != 0xD:  # a second data byte
            if pos >= size:
                raise MidiParseError("truncated event data", pos)
            if data[pos] & 0x80:
                raise MidiParseError(f"event data 0x{data[pos]:02X} has its high bit set", pos)
            pos += 1
        if kind <= 0x9 or kind == 0xC:  # note-off, note-on, program change
            ticks.append(tick)
            offs.append(status_off)
            statuses.append(status)

    if ticks:
        buf = np.frombuffer(data, dtype=np.uint8)
        columns = (np.frombuffer(a, dtype=a.typecode) for a in (ticks, offs, statuses))
        _settle_track(buf, *columns, tick, status_off, track_index, tracks)


def parse_midi(data: bytes, warnings: list[str] | None = None) -> ScoreTimeline:
    """Parse an SMF byte string into a :class:`ScoreTimeline`.

    A track whose events all match :data:`_EVENT` (each with its own
    status byte) and end at its only End of Track is read in NumPy
    (:func:`_match_track`); any other track (running status, sysex, other
    meta events, a fault) is scanned a byte at a time (:func:`_scan_track`),
    and every error comes from the scan.  Both hand the same events, each
    as a tick, a status offset and a status, to :func:`_settle_track`,
    which says what they mean and settles the track before the next is
    read, so errors and warnings come in file order: it drops orphan
    note-offs and closes dangling notes by :func:`_orphan_rule`, the rule
    of :func:`decode_ids`.  NumPy then pairs the note events, each
    note-off with the earliest open note-on of its channel and pitch in
    time order (equal ticks in track, then file order), converts ticks to
    ms and sorts the notes.  The traced peak memory stays within about 32
    bytes per input byte.
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

    tracks = _Tracks(sink)
    buf = np.frombuffer(data, dtype=np.uint8)
    track_index = 0
    while track_index < declared_tracks:
        chunk_off = pos
        if pos == size:
            sink.append(
                f"header declares {declared_tracks} tracks but file has {track_index}"
            )
            break
        pos = _need(data, pos, 4, "chunk id")
        pos = _need(data, pos, 4, "chunk length")
        chunk_len = int.from_bytes(data[pos - 4:pos], "big")
        if data[chunk_off:chunk_off + 4] != b"MTrk":
            # Unknown chunk types are legal and skipped.
            pos = _need(data, pos, chunk_len, "unknown chunk body")
            continue
        end = pos + chunk_len
        if end > size:
            raise MidiParseError("track chunk overruns file", chunk_off + 4)
        if not _match_track(data, buf, pos, end, track_index, tracks):
            _scan_track(data, pos, end, track_index, tracks)
        pos = end
        track_index += 1

    # The first candidate at the earliest tick wins: candidates are in (track, event) order.
    tempo_us, tempo_off = DEFAULT_TEMPO_US, None
    if tracks.tempos:
        tempo_us, tempo_off = min(tracks.tempos, key=itemgetter(0))[1:]
        if tempo_us <= 0:
            tempo_us = DEFAULT_TEMPO_US
    quarters_per_bar, timesig_off = 4.0, None
    if tracks.timesigs:
        quarters_per_bar, timesig_off = min(tracks.timesigs, key=itemgetter(0))[1:]

    def tick_to_ms(tick):
        """The ms time of a tick (an int), or of each tick of an int64 array."""
        if smpte_ms_per_tick is None:
            # round-half-up in exact integer arithmetic
            den = ticks_per_quarter * 1000
            return (2 * tick * tempo_us + den) // (2 * den)
        if isinstance(tick, int):
            return round(tick * smpte_ms_per_tick)
        return np.rint(tick * smpte_ms_per_tick).astype(np.int64)  # half to even, as round()

    last_ms = tick_to_ms(tracks.last_tick)
    if last_ms > MAX_SCORE_SPAN_MS:
        raise MidiParseError(
            f"note at {last_ms} ms is past the {MAX_SCORE_SPAN_MS} ms limit", tracks.last_off
        )

    # No tick exceeds last_tick, so every tick is below 2**47 (32767 ticks
    # per quarter at 1 usec per quarter over an hour) and no int64 product
    # below nears overflow.  A stable sort on (key, tick) keeps (track,
    # event) order among equal ticks.  A key has as many offs as ons and
    # they never outrun its ons, so the FIFO match pairs its k-th on and
    # k-th off.
    ticks = np.concatenate(tracks.ticks)
    codes = np.concatenate(tracks.codes)
    del tracks
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
    order, orphan = _orphan_rule(codes | NUM_PITCHES, is_on)
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
