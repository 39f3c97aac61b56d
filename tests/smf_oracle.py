"""The SMF reader as it stood before the inline rewrite, kept as an oracle.

``oracle_parse_midi`` is the ``_Reader``-based ``parse_midi`` copied word
for word (only the function name differs), so the differential fuzz test
in ``test_smf_fuzz.py`` can require the package parser to give the same
score, warnings, or ``MidiParseError`` message and offset on any input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from midisync.midi_codec import (
    MAX_SCORE_SPAN_MS,
    MidiParseError,
    NoteEvent,
    ScoreTimeline,
    program_to_instrument,
)
from midisync.tokens import Instrument


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


def oracle_parse_midi(data: bytes, warnings: list[str] | None = None) -> ScoreTimeline:
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
