//! Property-based model of the `xpt://` submission/completion wire
//! layer (DESIGN.md §15): no chunking of the inbound byte stream may
//! change what the assembler reassembles, donated direct reads must be
//! indistinguishable from staged ingest, and the egress queue must
//! recycle exactly the bytes the wire completed — in order — under any
//! partial-write pattern.

use proptest::prelude::*;
use std::io::IoSlice;
use xdaq_mempool::FrameBuf;
use xdaq_pt::xpt::wire::{
    Event, OutQueue, RecvAssembler, SubQueue, HELLO_PREFIX, MAX_BATCH, SUB_MAX_BYTES,
    SUB_MAX_FRAMES,
};

fn frame(words: usize, fill: u8) -> FrameBuf {
    let len = words * 4;
    let mut f = FrameBuf::detached(len);
    f.raw_mut()[..len].fill(fill);
    f.raw_mut()[2..4].copy_from_slice(&((words as u16).to_le_bytes()));
    f
}

/// The canonical inbound byte stream: hello line, then frames
/// back-to-back, exactly as a peer's egress queue would emit them.
fn stream_of(frames: &[FrameBuf]) -> Vec<u8> {
    let mut s = format!("{HELLO_PREFIX}xpt://10.0.0.1:4242\n").into_bytes();
    for f in frames {
        s.extend_from_slice(f);
    }
    s
}

/// The bytes of the egress queue's next gather batch, flattened.
fn gather(out: &OutQueue) -> Vec<u8> {
    let mut iov = [IoSlice::new(&[]); MAX_BATCH];
    let n = out.slices(&mut iov);
    iov[..n].iter().flat_map(|s| s.iter().copied()).collect()
}

fn pool() -> xdaq_mempool::DynAllocator {
    xdaq_mempool::TablePool::with_defaults()
}

/// Asserts the event list is the hello followed by byte-identical
/// copies of `want`, in order.
fn assert_events(events: &[Event], want: &[FrameBuf]) {
    assert!(
        matches!(&events[0], Event::Hello(a) if a == "xpt://10.0.0.1:4242"),
        "first event must be the hello"
    );
    assert_eq!(events.len(), want.len() + 1, "one event per frame");
    for (ev, orig) in events[1..].iter().zip(want) {
        match ev {
            Event::Frame(got) => assert_eq!(&got[..], &orig[..], "frame bytes survive"),
            Event::Hello(h) => panic!("unexpected second hello {h:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// However the kernel fragments the inbound stream across reads,
    /// the assembler reproduces the original frames byte-for-byte.
    #[test]
    fn assembler_survives_any_chunking(
        sizes in proptest::collection::vec(4usize..2048, 1..16),
        cuts in proptest::collection::vec(1usize..1500, 1..64),
    ) {
        let frames: Vec<FrameBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| frame(w, (i * 37 + 1) as u8))
            .collect();
        let stream = stream_of(&frames);

        let mut rasm = RecvAssembler::new(pool());
        let mut events = Vec::new();
        let (mut pos, mut turn) = (0usize, 0usize);
        while pos < stream.len() {
            let take = cuts[turn % cuts.len()].min(stream.len() - pos);
            turn += 1;
            rasm.ingest(&stream[pos..pos + take], &mut events).unwrap();
            pos += take;
        }
        assert_events(&events, &frames);
        prop_assert_eq!(rasm.donations(), 0, "staged ingest never donates");
    }

    /// Interleaving donated direct reads (kernel writes straight into
    /// the pool block) with staged ingest yields the same frames as
    /// pure staging — partial direct reads included.
    #[test]
    fn donation_path_is_equivalent_to_staging(
        sizes in proptest::collection::vec(4usize..4096, 1..12),
        steps in proptest::collection::vec(1usize..8192, 1..128),
    ) {
        let frames: Vec<FrameBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| frame(w, (i * 53 + 2) as u8))
            .collect();
        let stream = stream_of(&frames);

        let mut rasm = RecvAssembler::new(pool());
        let mut events = Vec::new();
        let (mut pos, mut turn) = (0usize, 0usize);
        while pos < stream.len() {
            let step = steps[turn % steps.len()].min(stream.len() - pos);
            turn += 1;
            let direct = rasm.direct_read_len();
            // Odd steps model "the driver went through the donation
            // path"; even ones model a staged scratch read.
            if direct > 0 && step % 2 == 1 {
                let n = step.min(direct);
                rasm.direct_buf()[..n].copy_from_slice(&stream[pos..pos + n]);
                rasm.direct_advance(n, &mut events);
                pos += n;
            } else {
                rasm.ingest(&stream[pos..pos + step], &mut events).unwrap();
                pos += step;
            }
        }
        assert_events(&events, &frames);
    }

    /// The egress queue recycles exactly the frames the wire finished,
    /// in submission order, and its gather list always describes the
    /// exact unsent remainder — under any partial-completion pattern.
    #[test]
    fn out_queue_completions_model_writev(
        sizes in proptest::collection::vec(4usize..1024, 1..80),
        completions in proptest::collection::vec(1usize..5000, 1..400),
    ) {
        let frames: Vec<FrameBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| frame(w, (i * 11 + 3) as u8))
            .collect();
        let lens: Vec<usize> = frames.iter().map(|f| f.len()).collect();
        let mut flat = Vec::new();
        let mut out = OutQueue::default();
        for f in frames {
            flat.extend_from_slice(&f);
            out.push(f);
        }

        let (mut cursor, mut turn, mut recycled) = (0usize, 0usize, Vec::new());
        while !out.is_empty() {
            // The gather batch must be a prefix of the unsent bytes.
            let gathered = gather(&out);
            prop_assert_eq!(&flat[cursor..cursor + gathered.len()], &gathered[..]);

            let n = completions[turn % completions.len()].min(out.pending_bytes());
            turn += 1;
            out.advance(n, |len| recycled.push(len));
            cursor += n;
        }
        prop_assert_eq!(cursor, flat.len(), "every byte completed once");
        prop_assert_eq!(recycled, lens, "frames recycle in order");
        prop_assert_eq!(out.pending_bytes(), 0);
    }

    /// A frame a sender started writing inline, at any offset, and the
    /// driver finished from the ring (`push_tail`, `drain_into`,
    /// `slices`) yields the same byte stream as the ring alone would,
    /// and every frame completes once, in order.
    #[test]
    fn inline_start_then_ring_matches_ring_alone(
        sizes in proptest::collection::vec(4usize..2048, 1..40),
        cut in 0usize..1 << 20,
        completions in proptest::collection::vec(1usize..5000, 1..200),
    ) {
        let frames: Vec<FrameBuf> = sizes
            .iter()
            .enumerate()
            .map(|(i, &w)| frame(w, (i * 29 + 5) as u8))
            .collect();
        let lens: Vec<usize> = frames.iter().map(|f| f.len()).collect();
        let flat: Vec<u8> = frames.iter().flat_map(|f| f.iter().copied()).collect();

        let mut sub = SubQueue::default();
        prop_assert!(sub.claim_inline(1), "an idle link may write inline");
        prop_assert!(!sub.claim_inline(1), "once per driver sleep");
        let mut frames = frames.into_iter();
        let head = frames.next().unwrap();
        let written = cut % head.len();
        let mut wire = head[..written].to_vec(); // what the sender wrote
        sub.push_tail(head, written);
        for f in frames {
            sub.push(f).unwrap();
        }
        prop_assert!(!sub.claim_inline(2), "a queued tail keeps senders off");

        let mut out = OutQueue::default();
        sub.drain_into(&mut out);
        prop_assert!(!sub.claim_inline(3), "the driver owns the stream");
        let (mut turn, mut recycled) = (0usize, Vec::new());
        while !out.is_empty() {
            // One `writev` of the gather list, completing `n` bytes.
            let gathered = gather(&out);
            let n = completions[turn % completions.len()].min(gathered.len());
            turn += 1;
            wire.extend_from_slice(&gathered[..n]);
            out.advance(n, |len| recycled.push(len));
        }
        prop_assert_eq!(&wire, &flat, "same bytes as the ring alone");
        prop_assert_eq!(recycled, lens, "each frame completes once, in order");
        sub.flushed();
        prop_assert!(sub.claim_inline(4), "an emptied queue hands the link back");
    }

    /// The submission ring never exceeds its caps and hands every
    /// accepted frame to the egress queue exactly once.
    #[test]
    fn sub_queue_caps_hold(
        sizes in proptest::collection::vec(4usize..16384, 1..600),
    ) {
        let mut sub = SubQueue::default();
        let (mut accepted, mut bytes) = (0usize, 0usize);
        for (i, &w) in sizes.iter().enumerate() {
            match sub.push(frame(w, i as u8)) {
                Ok(()) => {
                    accepted += 1;
                    bytes += w * 4;
                }
                Err(f) => {
                    // Rejection is exactly "a cap would overflow".
                    prop_assert!(
                        accepted == SUB_MAX_FRAMES || bytes + f.len() > SUB_MAX_BYTES,
                        "rejected below caps: {accepted} frames, {bytes} bytes"
                    );
                }
            }
            prop_assert!(accepted <= SUB_MAX_FRAMES && bytes <= SUB_MAX_BYTES);
        }
        let mut out = OutQueue::default();
        sub.drain_into(&mut out);
        prop_assert!(sub.is_empty());
        prop_assert_eq!(out.len(), accepted);
    }
}
