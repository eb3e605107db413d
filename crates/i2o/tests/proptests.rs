//! Property-based tests of the I2O wire format: every structurally
//! valid message must round-trip losslessly, and the decoder must
//! never panic on arbitrary bytes.

use proptest::prelude::*;
use xdaq_i2o::{Message, MsgFlags, MsgHeader, Priority, Sgl, SglElement, Tid, TidAllocator};

fn arb_tid() -> impl Strategy<Value = Tid> {
    (0u16..=0xFFF).prop_map(|v| Tid::new(v).unwrap())
}

fn arb_priority() -> impl Strategy<Value = Priority> {
    (0u8..=6).prop_map(|l| Priority::new(l).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn private_message_roundtrips(
        target in arb_tid(),
        initiator in arb_tid(),
        org in any::<u16>(),
        xfn in any::<u16>(),
        pri in arb_priority(),
        ictx in any::<u32>(),
        tctx in any::<u32>(),
        expect_reply in any::<bool>(),
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
    ) {
        let mut b = Message::build_private(target, initiator, org, xfn)
            .priority(pri)
            .context(ictx)
            .transaction(tctx)
            .payload(payload.clone());
        if expect_reply {
            b = b.expect_reply();
        }
        let msg = b.finish();
        let wire = msg.encode_vec();
        prop_assert_eq!(wire.len() % 4, 0, "word aligned");
        let back = Message::decode(&wire).unwrap();
        prop_assert_eq!(&back, &msg);
        prop_assert_eq!(&back.payload[..], &payload[..]);
        prop_assert_eq!(back.priority(), pri);
    }

    #[test]
    fn standard_message_roundtrips(
        target in arb_tid(),
        initiator in arb_tid(),
        function in 0u8..0xFF, // 0xFF would be private
        payload in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let mut h = MsgHeader::new(target, initiator, xdaq_i2o::FunctionCode::from_u8(function));
        // from_u8 may map to Unknown; to_u8 must preserve the byte.
        prop_assert_eq!(h.function_code().to_u8(), function);
        h.payload_len = payload.len() as u32;
        let mut buf = vec![0u8; h.frame_len()];
        h.encode(&mut buf).unwrap();
        buf[xdaq_i2o::HEADER_LEN..xdaq_i2o::HEADER_LEN + payload.len()]
            .copy_from_slice(&payload);
        let d = MsgHeader::decode(&buf).unwrap();
        prop_assert_eq!(d, h);
    }

    #[test]
    fn decoder_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = MsgHeader::decode(&bytes);
        let _ = Message::decode(&bytes);
        let _ = Sgl::decode(&bytes);
    }

    #[test]
    fn flags_bits_roundtrip(bits in any::<u8>()) {
        let f = MsgFlags::from_bits(bits);
        // Re-encoding must be stable (idempotent normalization).
        let g = MsgFlags::from_bits(f.bits());
        prop_assert_eq!(f, g);
        prop_assert!(f.priority().level() <= 6);
    }

    #[test]
    fn patch_functions_commute_with_decode(
        target in arb_tid(),
        initiator in arb_tid(),
        new_target in arb_tid(),
        new_initiator in arb_tid(),
        payload_len in 0u32..256,
    ) {
        let mut h = MsgHeader::new(target, initiator, xdaq_i2o::FunctionCode::Private);
        h.payload_len = payload_len + 4;
        let mut buf = vec![0u8; h.frame_len()];
        h.encode(&mut buf).unwrap();
        MsgHeader::patch_target(&mut buf, new_target);
        MsgHeader::patch_initiator(&mut buf, new_initiator);
        let d = MsgHeader::decode(&buf).unwrap();
        prop_assert_eq!(d.target, new_target);
        prop_assert_eq!(d.initiator, new_initiator);
        prop_assert_eq!(d.payload_len, h.payload_len);
        prop_assert_eq!(d.function, h.function);
    }

    #[test]
    fn sgl_from_segments_always_valid(
        segs in proptest::collection::vec((any::<u64>(), 1u32..1_000_000), 1..32)
    ) {
        let sgl = Sgl::from_segments(segs.clone());
        prop_assert!(sgl.validate().is_ok());
        let total: u64 = segs.iter().map(|(_, l)| *l as u64).sum();
        prop_assert_eq!(sgl.total_len(), total);
        let mut buf = vec![0u8; sgl.encoded_len()];
        sgl.encode(&mut buf);
        let back = Sgl::decode(&buf).unwrap();
        prop_assert_eq!(back, sgl);
    }

    #[test]
    fn sgl_seal_fixes_any_flag_state(
        flags in proptest::collection::vec(0u8..4, 1..16)
    ) {
        let mut sgl = Sgl::new();
        for (i, f) in flags.iter().enumerate() {
            // CHAIN anywhere but last would be invalid; use data flags only.
            let _ = f;
            sgl.push(SglElement::data(i as u64, 1));
        }
        sgl.seal();
        prop_assert!(sgl.validate().is_ok());
    }

    #[test]
    fn tid_allocator_never_hands_out_duplicates(takes in 1usize..500) {
        let mut a = TidAllocator::new();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..takes {
            let t = a.allocate().unwrap();
            prop_assert!(!t.is_reserved());
            prop_assert!(seen.insert(t), "duplicate {t}");
        }
        prop_assert_eq!(a.live(), takes);
    }

    #[test]
    fn reply_roundtrip_preserves_contexts(
        target in arb_tid(),
        initiator in arb_tid(),
        ictx in any::<u32>(),
        status in 0u8..=9,
        body in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let req = Message::build_private(target, initiator, 7, 7)
            .context(ictx)
            .expect_reply()
            .finish();
        let rep = req.reply(xdaq_i2o::ReplyStatus::from_u8(status), &body);
        let wire = rep.encode_vec();
        let back = Message::decode(&wire).unwrap();
        let (st, b) = back.reply_status().unwrap();
        prop_assert_eq!(st as u8, status);
        prop_assert_eq!(b, &body[..]);
        prop_assert_eq!(back.header.initiator_context, ictx);
        prop_assert_eq!(back.header.target, initiator);
    }
}
