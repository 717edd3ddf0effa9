//! Runs: what crosses a thread boundary on the replica↔replica path.
//!
//! A **run** is one or more `[u32 big-endian length][frame]` records laid
//! end to end — byte for byte what `docs/WIRE_FORMAT.md` puts on a peer
//! socket. The mailbox thread packs every frame a burst produces for one
//! peer into one run and hands it over once; the peer writer writes it as it
//! is; the peer reader hands every complete record of one `read` to the
//! mailbox as one run; the mailbox walks a run's records by slice
//! ([`frames`]). A run is never parsed on the way out and copied once on the
//! way in, and a channel operation (and the wake-up behind it) is paid per
//! run, not per frame.
//!
//! Runs this crate builds are well formed. One that arrives from a hostile
//! in-process sender may end in a record that is cut short or whose prefix
//! exceeds [`MAX_FRAME_BYTES`]: the cursor yields the complete records in
//! front of it, then one [`MalformedTail`], then nothing.

use crate::frame::MAX_FRAME_BYTES;

/// Bytes of the length prefix in front of every frame of a run.
pub(crate) const PREFIX: usize = 4;

/// Once a run holds this many bytes it is handed on — by the mailbox thread
/// to the transport in the middle of a burst, by a peer writer to its socket
/// while more runs are still queued. One frame may carry a run past the mark.
pub(crate) const COALESCE_BYTES: usize = 64 * 1024;

/// The length prefix of a record exceeds [`MAX_FRAME_BYTES`]: the stream is
/// poisoned and the connection must be dropped — there is no way to
/// resynchronize a length-prefixed stream past a bad prefix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct OversizeFrame;

/// Appends one `[u32 BE length][frame]` record to a run. Frames packed back
/// to back leave in one write and still arrive as themselves.
pub fn pack_frame(run: &mut Vec<u8>, frame: &[u8]) {
    run.extend_from_slice(&(frame.len() as u32).to_be_bytes());
    run.extend_from_slice(frame);
}

/// Appends one record whose frame `encode` writes straight into the run: the
/// prefix is left blank, the frame encoded behind it, the prefix filled in.
pub(crate) fn pack_with(run: &mut Vec<u8>, encode: impl FnOnce(&mut Vec<u8>)) {
    let at = run.len();
    run.extend_from_slice(&[0; PREFIX]);
    encode(run);
    let len = (run.len() - at - PREFIX) as u32;
    run[at..at + PREFIX].copy_from_slice(&len.to_be_bytes());
}

/// Turns an owned frame into a run of one by prefixing it in place: the
/// frame's bytes move up four places inside their own allocation instead of
/// being copied into a second one.
pub(crate) fn into_run(mut frame: Vec<u8>) -> Vec<u8> {
    let prefix = (frame.len() as u32).to_be_bytes();
    frame.splice(..0, prefix);
    frame
}

/// Length of the record `bytes` starts with, prefix included. `Ok(None)`
/// means only part of a record is there.
pub(crate) fn record_len(bytes: &[u8]) -> Result<Option<usize>, OversizeFrame> {
    let Some(prefix) = bytes.first_chunk::<PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_be_bytes(*prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(OversizeFrame);
    }
    Ok((bytes.len() - PREFIX >= len).then_some(PREFIX + len))
}

/// What is left of a run where no complete record starts: a record cut
/// short, or a prefix beyond [`MAX_FRAME_BYTES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MalformedTail;

/// Cursor over the frames of a run, in order, by slice.
pub struct Frames<'a> {
    rest: &'a [u8],
}

/// Walks `run` record by record without copying anything.
pub fn frames(run: &[u8]) -> Frames<'_> {
    Frames { rest: run }
}

impl<'a> Iterator for Frames<'a> {
    type Item = Result<&'a [u8], MalformedTail>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match record_len(self.rest) {
            Ok(Some(len)) => {
                let (record, rest) = self.rest.split_at(len);
                self.rest = rest;
                Some(Ok(&record[PREFIX..]))
            }
            Ok(None) | Err(OversizeFrame) => {
                self.rest = &[];
                Some(Err(MalformedTail))
            }
        }
    }
}

/// How many frames `run` holds. A malformed tail counts as one: it is one
/// thing its receiver has to look at and reject.
pub(crate) fn frame_count(run: &[u8]) -> u64 {
    frames(run).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_run_holds_nothing() {
        assert_eq!(frames(&[]).next(), None);
        assert_eq!(frame_count(&[]), 0);
    }

    #[test]
    fn one_record_yields_its_frame_and_then_nothing() {
        let mut run = Vec::new();
        pack_frame(&mut run, b"vote");
        let mut cursor = frames(&run);
        assert_eq!(cursor.next(), Some(Ok(&b"vote"[..])));
        assert_eq!(cursor.next(), None);
        // An empty frame is still a record.
        assert_eq!(frames(&[0, 0, 0, 0]).collect::<Vec<_>>(), [Ok(&[][..])]);
    }

    #[test]
    fn every_way_of_packing_writes_the_same_records() {
        let sent: Vec<Vec<u8>> = (0..50usize).map(|i| vec![i as u8; (i * 13) % 70]).collect();
        let mut packed = Vec::new();
        let mut encoded = Vec::new();
        let mut joined = Vec::new();
        for frame in &sent {
            pack_frame(&mut packed, frame);
            pack_with(&mut encoded, |out| out.extend_from_slice(frame));
            joined.extend(into_run(frame.clone()));
        }
        assert_eq!(packed, encoded);
        assert_eq!(packed, joined);
        let got: Vec<&[u8]> = frames(&packed).map(|frame| frame.expect("whole")).collect();
        assert_eq!(got, sent);
        assert_eq!(frame_count(&packed), sent.len() as u64);
    }

    #[test]
    fn a_truncated_tail_ends_the_run_behind_its_complete_records() {
        let mut run = Vec::new();
        pack_frame(&mut run, b"first");
        pack_frame(&mut run, b"second");
        let whole = run.len();
        pack_frame(&mut run, b"cut short");
        // Cut anywhere inside the third record: inside its prefix, right
        // behind it, inside its frame.
        for keep in whole + 1..run.len() {
            let got: Vec<_> = frames(&run[..keep]).collect();
            assert_eq!(
                got,
                [Ok(&b"first"[..]), Ok(&b"second"[..]), Err(MalformedTail)],
                "cut at {keep}"
            );
            assert_eq!(frame_count(&run[..keep]), 3);
        }
    }

    #[test]
    fn an_oversize_prefix_ends_the_run_without_reading_past_it() {
        let mut run = Vec::new();
        pack_frame(&mut run, b"fine");
        run.extend_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_be_bytes());
        run.extend_from_slice(&[7; 64]);
        let got: Vec<_> = frames(&run).collect();
        assert_eq!(got, [Ok(&b"fine"[..]), Err(MalformedTail)]);
        assert_eq!(record_len(&run[8..]), Err(OversizeFrame));
        // The largest prefix there is: no arithmetic on it may overflow.
        assert_eq!(frames(&[0xFF; 9]).collect::<Vec<_>>(), [Err(MalformedTail)]);
    }
}
