"""Standard MIDI file codec and the event-stream encoder/decoder.

The module converts between three representations:

``bytes`` (Standard MIDI File)  <->  :class:`ScoreTimeline`  <->  token list

A :class:`ScoreTimeline` is the neutral middle ground: absolute
integer-millisecond note intervals bucketed into the five instrument
categories, plus bar marks and a tempo.  SMF parsing is written from
scratch so that malformed input can be reported with exact byte
offsets; it supports format 0 and 1 files, running status, tempo and
time-signature metadata, and both PPQ and SMPTE divisions.

Instrument bucketing follows General MIDI programs: 0-23 piano, 24-31
guitar, 32-39 bass, every other pitched program strings, and channel 10
(9 when counted from zero) is always drums regardless of program.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

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
    TokenKind,
)

DEFAULT_TEMPO_BPM = 120.0
DEFAULT_VELOCITY = 80
MAX_TRANSPOSE = 3
#: Instrument tag threshold: scores with at most this many distinct
#: non-drum categories are tagged FEWER_INSTRUMENTS, otherwise MORE_INSTRUMENTS.
FEWER_INSTRUMENT_LIMIT = 2
#: Longest score parse_midi accepts (one hour).  It bounds the bar-mark
#: loop and the TIMESHIFT tokens a corrupted delta time could demand.
MAX_SCORE_SPAN_MS = 3_600_000

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


@dataclass(frozen=True)
class NoteEvent:
    """One note with absolute integer-millisecond boundaries."""

    instrument: Instrument
    pitch: int
    onset_ms: int
    offset_ms: int
    velocity: int = DEFAULT_VELOCITY

    def __post_init__(self) -> None:
        if not 0 <= self.pitch < NUM_PITCHES:
            raise ValueError(f"pitch {self.pitch} outside 0..{NUM_PITCHES - 1}")
        if self.onset_ms < 0:
            raise ValueError(f"onset_ms must be >= 0, got {self.onset_ms}")
        if self.offset_ms <= self.onset_ms:
            raise ValueError(
                f"offset_ms must exceed onset_ms ({self.offset_ms} <= {self.onset_ms})"
            )
        if not 1 <= self.velocity <= 127:
            raise ValueError(f"velocity {self.velocity} outside 1..127")

    @property
    def duration_ms(self) -> int:
        return self.offset_ms - self.onset_ms

    def sort_key(self):
        return (self.onset_ms, self.instrument.value, self.pitch, self.offset_ms, self.velocity)


@dataclass
class ScoreTimeline:
    """Normalized score: sorted notes, bar marks, and a tempo."""

    notes: list[NoteEvent] = field(default_factory=list)
    tempo_bpm: float = DEFAULT_TEMPO_BPM
    bar_marks_ms: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.tempo_bpm <= 0:
            raise ValueError(f"tempo_bpm must be positive, got {self.tempo_bpm}")
        self.notes = sorted(self.notes, key=NoteEvent.sort_key)
        marks = tuple(self.bar_marks_ms)
        if any(b < 0 for b in marks):
            raise ValueError("bar marks must be >= 0")
        if any(b >= a for b, a in zip(marks, marks[1:])):
            raise ValueError("bar marks must be strictly increasing")
        self.bar_marks_ms = marks

    def span_ms(self) -> int:
        last_note = max((n.offset_ms for n in self.notes), default=0)
        last_mark = max(self.bar_marks_ms, default=0)
        return max(last_note, last_mark)

    def instruments_used(self) -> set[Instrument]:
        return {n.instrument for n in self.notes}


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


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise MidiParseError(f"truncated {what}", self.pos)
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def data_byte(self, what: str) -> int:
        """A channel-message data byte, which must have its high bit clear."""
        byte = self.take(1, what)[0]
        if byte & 0x80:
            raise MidiParseError(f"{what} 0x{byte:02X} has its high bit set", self.pos - 1)
        return byte

    def u16(self, what: str) -> int:
        return int.from_bytes(self.take(2, what), "big")

    def u32(self, what: str) -> int:
        return int.from_bytes(self.take(4, what), "big")

    def varlen(self, what: str) -> int:
        value = 0
        for _ in range(4):
            byte = self.u8(what)
            value = (value << 7) | (byte & 0x7F)
            if not byte & 0x80:
                return value
        raise MidiParseError(f"variable-length {what} exceeds four bytes", self.pos - 1)


@dataclass
class _RawEvent:
    tick: int
    track: int
    seq: int
    status: int          # 0x8 note off / 0x9 note on (high nibble)
    channel: int
    pitch: int
    velocity: int
    instrument: Instrument

    def order_key(self):
        return (self.tick, self.track, self.seq)


def parse_midi(data: bytes, warnings: list[str] | None = None) -> ScoreTimeline:
    """Parse an SMF byte string into a :class:`ScoreTimeline`.

    Recoverable oddities (dangling note-ons, zero-length notes after
    millisecond rounding, orphan note-offs) are repaired and described in
    the optional ``warnings`` sink; structural corruption raises
    :class:`MidiParseError` with the offending byte offset.
    """
    sink = warnings if warnings is not None else []
    r = _Reader(data)

    header_off = r.pos
    if r.take(4, "header chunk id") != b"MThd":
        raise MidiParseError("missing MThd header chunk", header_off)
    header_len = r.u32("header length")
    if header_len < 6:
        raise MidiParseError(f"header chunk too short ({header_len} bytes)", r.pos - 4)
    smf_format = r.u16("format field")
    declared_tracks = r.u16("track count")
    division = r.u16("division field")
    r.take(header_len - 6, "header padding")
    if smf_format not in (0, 1):
        raise MidiParseError(f"unsupported SMF format {smf_format}", header_off + 8)
    if smf_format == 0 and declared_tracks != 1:
        raise MidiParseError(
            f"format 0 file declares {declared_tracks} tracks", header_off + 10
        )

    ticks_per_quarter: int | None = None
    smpte_ms_per_tick: float | None = None
    if division & 0x8000:
        fps = 256 - (division >> 8)  # stored as negative two's complement
        ticks_per_frame = division & 0xFF
        if fps <= 0 or ticks_per_frame == 0:
            raise MidiParseError("invalid SMPTE division", header_off + 12)
        smpte_ms_per_tick = 1000.0 / (fps * ticks_per_frame)
    else:
        ticks_per_quarter = division
        if ticks_per_quarter == 0:
            raise MidiParseError("division of zero ticks per quarter", header_off + 12)

    events: list[_RawEvent] = []
    # (tick, track, seq, value, byte offset of the meta body)
    tempo_candidates: list[tuple[int, int, int, int, int]] = []  # value: usec per quarter
    timesig_candidates: list[tuple[int, int, int, float, int]] = []  # value: quarters per bar
    last_tick = last_off = 0  # the latest note event and where it was read
    seq = 0
    track_index = 0

    while track_index < declared_tracks:
        chunk_off = r.pos
        if r.pos == len(data):
            sink.append(
                f"header declares {declared_tracks} tracks but file has {track_index}"
            )
            break
        chunk_id = r.take(4, "chunk id")
        chunk_len = r.u32("chunk length")
        if chunk_id != b"MTrk":
            # Unknown chunk types are legal and skipped.
            r.take(chunk_len, "unknown chunk body")
            continue
        end = r.pos + chunk_len
        if end > len(data):
            raise MidiParseError("track chunk overruns file", chunk_off + 4)

        tick = 0
        running_status: int | None = None
        programs = dict.fromkeys(range(16), 0)
        open_counts: dict[tuple[int, int], int] = {}

        while r.pos < end:
            tick += r.varlen("delta time")
            status_off = r.pos
            first = r.u8("event status")
            if first < 0x80:
                if running_status is None:
                    raise MidiParseError("data byte with no running status", status_off)
                status = running_status
                data1 = first
            else:
                status = first
                if status < 0xF0:
                    running_status = status
                    data1 = r.data_byte("event data")
                else:
                    data1 = -1  # meta / sysex, handled below

            kind = status >> 4
            channel = status & 0x0F

            if status == 0xFF:
                meta_type = r.u8("meta type")
                meta_len = r.varlen("meta length")
                body_off = r.pos
                body = r.take(meta_len, "meta body")
                running_status = None
                if meta_type == 0x51 and meta_len == 3:
                    tempo = int.from_bytes(body, "big")
                    tempo_candidates.append((tick, track_index, seq, tempo, body_off))
                elif meta_type == 0x58 and meta_len >= 2:
                    quarters = body[0] * 4.0 / (1 << body[1])
                    timesig_candidates.append((tick, track_index, seq, quarters, body_off))
                elif meta_type == 0x2F:
                    break
                seq += 1
                continue
            if status in (0xF0, 0xF7):
                sysex_len = r.varlen("sysex length")
                r.take(sysex_len, "sysex body")
                running_status = None
                seq += 1
                continue
            if kind in (0x8, 0x9, 0xA, 0xB, 0xE):
                data2 = r.data_byte("event data")
            elif kind in (0xC, 0xD):
                data2 = 0
            else:
                raise MidiParseError(f"unexpected status byte 0x{status:02X}", status_off)

            if kind == 0xC:
                programs[channel] = data1
            elif kind in (0x8, 0x9):
                is_on = kind == 0x9 and data2 > 0
                key = (channel, data1)
                if is_on:
                    open_counts[key] = open_counts.get(key, 0) + 1
                else:
                    if open_counts.get(key, 0) == 0:
                        sink.append(
                            f"track {track_index}: note-off with no open note "
                            f"(channel {channel}, pitch {data1}, tick {tick})"
                        )
                        seq += 1
                        continue
                    open_counts[key] -= 1
                if tick > last_tick:
                    last_tick, last_off = tick, status_off
                events.append(
                    _RawEvent(
                        tick=tick,
                        track=track_index,
                        seq=seq,
                        status=0x9 if is_on else 0x8,
                        channel=channel,
                        pitch=data1,
                        velocity=data2 if is_on else 0,
                        instrument=program_to_instrument(programs[channel], channel),
                    )
                )
            seq += 1

        if tick > last_tick and any(open_counts.values()):
            last_tick, last_off = tick, status_off  # dangling notes close here
        for (channel, pitch), count in sorted(open_counts.items()):
            for _ in range(count):
                sink.append(
                    f"track {track_index}: note-on without note-off "
                    f"(channel {channel}, pitch {pitch}); closed at track end"
                )
                events.append(
                    _RawEvent(
                        tick=tick,
                        track=track_index,
                        seq=seq,
                        status=0x8,
                        channel=channel,
                        pitch=pitch,
                        velocity=0,
                        instrument=program_to_instrument(programs[channel], channel),
                    )
                )
                seq += 1
        r.pos = end
        track_index += 1

    tempo_us, tempo_off = 500000, None
    if tempo_candidates:
        tempo_us, tempo_off = min(tempo_candidates)[3:]
        if tempo_us <= 0:
            tempo_us = 500000
    quarters_per_bar, timesig_off = 4.0, None
    if timesig_candidates:
        quarters_per_bar, timesig_off = min(timesig_candidates)[3:]

    def tick_to_ms(tick: int) -> int:
        if smpte_ms_per_tick is not None:
            return round(tick * smpte_ms_per_tick)
        # round-half-up in exact integer arithmetic
        num = tick * tempo_us
        den = ticks_per_quarter * 1000
        return (2 * num + den) // (2 * den)

    if tick_to_ms(last_tick) > MAX_SCORE_SPAN_MS:
        raise MidiParseError(
            f"note at {tick_to_ms(last_tick)} ms is past the {MAX_SCORE_SPAN_MS} ms limit",
            last_off,
        )

    # Match offs to the earliest open on (FIFO) in merged time order.
    events.sort(key=_RawEvent.order_key)
    open_notes: dict[tuple[int, int], deque] = {}
    notes: list[NoteEvent] = []
    dropped = 0
    for ev in events:
        key = (ev.channel, ev.pitch)
        if ev.status == 0x9:
            open_notes.setdefault(key, deque()).append(ev)
        else:
            on = open_notes[key].popleft()
            onset = tick_to_ms(on.tick)
            offset = tick_to_ms(ev.tick)
            if offset <= onset:
                if on.tick == ev.tick:
                    dropped += 1
                    continue
                offset = onset + 1  # rounding collapsed a short note
            notes.append(
                NoteEvent(
                    instrument=on.instrument,
                    pitch=on.pitch,
                    onset_ms=onset,
                    offset_ms=offset,
                    velocity=max(1, min(127, on.velocity)),
                )
            )
    if dropped:
        sink.append(f"dropped {dropped} zero-length note(s)")

    bar_marks: list[int] = []
    if notes:
        bar_ms = quarters_per_bar * tempo_us / 1000.0
        if 0 < bar_ms < 1:
            # Blame the meta event that shrank the bar more, relative to 4/4 at 120 bpm.
            metre_at_fault = quarters_per_bar / 4.0 <= tempo_us / 500000
            raise MidiParseError(
                f"bar of {bar_ms:.3g} ms is shorter than 1 ms",
                timesig_off if metre_at_fault else tempo_off,
            )
        if bar_ms > 0:
            span = max(n.offset_ms for n in notes)
            t = 0.0
            while t <= span:
                mark = round(t)
                if not bar_marks or mark > bar_marks[-1]:
                    bar_marks.append(mark)
                t += bar_ms

    return ScoreTimeline(
        notes=notes,
        tempo_bpm=60_000_000.0 / tempo_us,
        bar_marks_ms=tuple(bar_marks),
    )


# ---------------------------------------------------------------------------
# SMF writing
# ---------------------------------------------------------------------------


def _varlen(value: int) -> bytes:
    if value < 0:
        raise ValueError("negative delta time")
    out = [value & 0x7F]
    value >>= 7
    while value:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    return bytes(reversed(out))


def _track_chunk(body: bytes) -> bytes:
    return b"MTrk" + len(body).to_bytes(4, "big") + body


def write_midi(score: ScoreTimeline, smf_type: int = 1) -> bytes:
    """Render a :class:`ScoreTimeline` as SMF bytes (format 0 or 1).

    Each instrument category is written to its own fixed channel (drums
    on channel 10) with a representative General MIDI program, at 480
    ticks per quarter, so that re-parsing buckets every note back into
    its original category.
    """
    if smf_type not in (0, 1):
        raise ValueError(f"smf_type must be 0 or 1, got {smf_type}")
    tempo_us = round(60_000_000 / score.tempo_bpm)
    ms_to_tick = lambda ms: round(ms * _WRITE_DIVISION * 1000 / tempo_us)  # noqa: E731

    def meta_body() -> list[tuple[int, int, bytes]]:
        return [
            (0, 0, b"\xff\x51\x03" + tempo_us.to_bytes(3, "big")),
            (0, 1, b"\xff\x58\x04\x04\x02\x18\x08"),
        ]

    def note_messages(instruments: tuple[Instrument, ...]) -> list[tuple[int, int, bytes]]:
        """Program changes and note on/off messages of the given (sorted) instruments."""
        msgs: list[tuple[int, int, bytes]] = [
            # programs must precede any note message at tick 0
            (0, -1, bytes([0xC0 | _CHANNELS[inst], _PROGRAMS[inst]]))
            for inst in instruments
            if inst in _PROGRAMS
        ]
        for n in score.notes:
            if n.instrument not in instruments:  # a tuple: identity tests, no Enum hashing
                continue
            ch = _CHANNELS[n.instrument]
            on_tick = ms_to_tick(n.onset_ms)
            off_tick = ms_to_tick(n.offset_ms)
            if off_tick <= on_tick:
                off_tick = on_tick + 1
            msgs.append((on_tick, 1, bytes([0x90 | ch, n.pitch, n.velocity])))
            msgs.append((off_tick, 0, bytes([0x80 | ch, n.pitch, 0])))
        return msgs

    def render(msgs: list[tuple[int, int, bytes]]) -> bytes:
        msgs.sort(key=lambda m: (m[0], m[1]))
        out = bytearray()
        tick = 0
        for t, _, payload in msgs:
            out += _varlen(t - tick)
            out += payload
            tick = t
        out += _varlen(0) + b"\xff\x2f\x00"
        return bytes(out)

    used = tuple(sorted(score.instruments_used()))
    if smf_type == 0:
        tracks = [render(meta_body() + note_messages(used))]
    else:
        tracks = [render(meta_body())] + [render(note_messages((inst,))) for inst in used]

    header = b"MThd" + (6).to_bytes(4, "big")
    header += smf_type.to_bytes(2, "big")
    header += len(tracks).to_bytes(2, "big")
    header += _WRITE_DIVISION.to_bytes(2, "big")
    return header + b"".join(_track_chunk(t) for t in tracks)


# ---------------------------------------------------------------------------
# Token encoding / decoding
# ---------------------------------------------------------------------------


def quantize_ms(t_ms: int) -> int:
    """Snap a millisecond time to the 8 ms grid (ties round up)."""
    if t_ms < 0:
        raise ValueError(f"time must be >= 0, got {t_ms}")
    return (t_ms + RESOLUTION_MS // 2) // RESOLUTION_MS * RESOLUTION_MS


def gap_to_shifts(gap_ms: int) -> list[Token]:
    """Split a grid-aligned gap into TIMESHIFT tokens (1000 ms chunks first)."""
    if gap_ms % RESOLUTION_MS:
        raise ValueError(f"gap {gap_ms} not aligned to {RESOLUTION_MS} ms grid")
    out = []
    while gap_ms > MAX_SHIFT_MS:
        out.append(Token.shift(MAX_SHIFT_MS))
        gap_ms -= MAX_SHIFT_MS
    if gap_ms:
        out.append(Token.shift(gap_ms))
    return out


def instrument_count_tag(score: ScoreTimeline) -> Token:
    """Tag by distinct non-drum categories (<= 2 means FEWER_INSTRUMENTS)."""
    pitched = {i for i in score.instruments_used() if not i.is_drums}
    return FEWER_INSTRUMENTS if len(pitched) <= FEWER_INSTRUMENT_LIMIT else MORE_INSTRUMENTS


def encode_events(score: ScoreTimeline, include_bars: bool = True) -> list[Token]:
    """Serialize a timeline as ``[START, <count tag>, ...events...]``.

    All times are quantized to the 8 ms grid.  Simultaneous events are
    ordered BAR, then OFF, then ON, each group by (instrument, pitch),
    which keeps the stream deterministic and lets consecutive notes of
    the same pitch close before they reopen.
    """
    entries: list[tuple[int, int, str, int, Token]] = []
    for n in score.notes:
        on_t = quantize_ms(n.onset_ms)
        off_t = quantize_ms(n.offset_ms)
        if off_t <= on_t:
            off_t = on_t + RESOLUTION_MS  # preserve the note despite quantization
        entries.append((on_t, 2, n.instrument.value, n.pitch, Token.on(n.instrument, n.pitch)))
        entries.append((off_t, 1, n.instrument.value, n.pitch, Token.off(n.instrument, n.pitch)))
    if include_bars:
        for mark in score.bar_marks_ms:
            q = quantize_ms(mark)
            entries.append((q, 0, "", 0, BAR))
    entries.sort(key=lambda e: e[:4])

    out = [START, instrument_count_tag(score)]
    cursor = 0
    last_bar = None
    for t, prio, _, _, token in entries:
        if t > cursor:
            out.extend(gap_to_shifts(t - cursor))
            cursor = t
        if token is BAR:
            if last_bar == cursor:
                continue  # quantization merged two marks
            last_bar = cursor
        out.append(token)
    return out


def decode_events(tokens: list[Token]) -> DecodeResult:
    """Rebuild a timeline from a token sequence.

    Tolerant by construction: orphan OFFs are counted and skipped,
    zero-length notes are counted and dropped, and notes still open at
    the end of the stream are closed there.  CHORD markers do not affect
    the timeline but their cursor positions are reported.
    """
    cursor = 0
    open_notes: dict[tuple[Instrument, int], deque[int]] = {}
    notes: list[NoteEvent] = []
    chord_onsets: list[int] = []
    bar_marks: list[int] = []
    ignored_offs = 0
    dropped = 0

    for tok in tokens:
        if tok.kind is TokenKind.TIMESHIFT:
            cursor += tok.shift_ms
        elif tok.kind is TokenKind.ON:
            open_notes.setdefault((tok.instrument, tok.pitch), deque()).append(cursor)
        elif tok.kind is TokenKind.OFF:
            queue = open_notes.get((tok.instrument, tok.pitch))
            if not queue:
                ignored_offs += 1
                continue
            onset = queue.popleft()
            if cursor <= onset:
                dropped += 1
                continue
            notes.append(NoteEvent(tok.instrument, tok.pitch, onset, cursor))
        elif tok.kind is TokenKind.CHORD:
            chord_onsets.append(cursor)
        elif tok.kind is TokenKind.BAR:
            if not bar_marks or cursor > bar_marks[-1]:
                bar_marks.append(cursor)

    unclosed = 0
    for (instrument, pitch), queue in sorted(
        open_notes.items(), key=lambda kv: (kv[0][0].value, kv[0][1])
    ):
        for onset in queue:
            unclosed += 1
            if cursor > onset:
                notes.append(NoteEvent(instrument, pitch, onset, cursor))
            else:
                dropped += 1

    score = ScoreTimeline(notes=notes, bar_marks_ms=tuple(bar_marks))
    return DecodeResult(
        score=score,
        chord_onsets_ms=chord_onsets,
        ignored_offs=ignored_offs,
        unclosed_notes=unclosed,
        dropped_zero_length=dropped,
    )


def trim_to_duration(score: ScoreTimeline, duration_ms: int) -> ScoreTimeline:
    """Clamp the timeline to ``duration_ms``.

    Notes that start at or after the limit are dropped; notes that cross
    it are cut short at the limit.  Bar marks past the limit are dropped.
    Generation may overshoot its requested duration by up to one time
    shift, and this is the trim applied before the result is written out.
    """
    if duration_ms <= 0:
        raise ValueError(f"duration_ms must be positive, got {duration_ms}")
    notes = [
        NoteEvent(n.instrument, n.pitch, n.onset_ms, min(n.offset_ms, duration_ms), n.velocity)
        for n in score.notes
        if n.onset_ms < duration_ms
    ]
    marks = tuple(m for m in score.bar_marks_ms if m <= duration_ms)
    return ScoreTimeline(notes=notes, tempo_bpm=score.tempo_bpm, bar_marks_ms=marks)


def transpose(score: ScoreTimeline, semitones: int) -> ScoreTimeline:
    """Shift every non-drum pitch by up to +/-3 semitones.

    Drums are percussion maps, not pitched material, so they pass
    through unchanged.  Pitches pushed outside 0..127 are clamped back
    by whole octaves to preserve pitch class.
    """
    if abs(semitones) > MAX_TRANSPOSE:
        raise ValueError(f"semitones must be within +/-{MAX_TRANSPOSE}, got {semitones}")
    if semitones == 0:
        return ScoreTimeline(
            notes=list(score.notes),
            tempo_bpm=score.tempo_bpm,
            bar_marks_ms=score.bar_marks_ms,
        )
    out = []
    for n in score.notes:
        if n.instrument.is_drums:
            out.append(n)
            continue
        pitch = n.pitch + semitones
        while pitch >= NUM_PITCHES:
            pitch -= 12
        while pitch < 0:
            pitch += 12
        out.append(
            NoteEvent(n.instrument, pitch, n.onset_ms, n.offset_ms, n.velocity)
        )
    return ScoreTimeline(notes=out, tempo_bpm=score.tempo_bpm, bar_marks_ms=score.bar_marks_ms)
