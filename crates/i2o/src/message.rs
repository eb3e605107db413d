//! Owned messages and the builder API.
//!
//! [`Message`] is the convenient, *owned* representation of one I2O
//! frame: header, optional private extension, payload bytes. The hot
//! path inside the executive works on pooled buffers instead (crate
//! `xdaq-mempool`), but applications, control scripts and tests use
//! this type, and every frame can be converted to/from its wire bytes
//! losslessly.

use crate::flags::{MsgFlags, Priority};
use crate::frame::{FrameError, MsgHeader, PrivateHeader, HEADER_LEN, PRIVATE_HEADER_LEN};
use crate::function::{ExecFn, FunctionCode, ReplyStatus, UtilFn};
use crate::tid::Tid;
use crate::OrgId;
use std::sync::Arc;

/// One complete, owned I2O message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Message {
    /// Standard header. `payload_len` always mirrors `payload.len()`
    /// plus the private extension, maintained by this type.
    pub header: MsgHeader,
    /// Private extension, present iff `header.function == 0xFF`.
    pub private: Option<PrivateHeader>,
    /// Payload bytes (cheaply cloneable).
    pub payload: Arc<[u8]>,
}

impl Message {
    /// Starts building a standard-function message.
    pub fn build(target: Tid, initiator: Tid, function: FunctionCode) -> MessageBuilder {
        MessageBuilder {
            msg: Message {
                header: MsgHeader::new(target, initiator, function),
                private: None,
                payload: Arc::default(),
            },
        }
    }

    /// Starts building a private (application) message.
    pub fn build_private(
        target: Tid,
        initiator: Tid,
        org: OrgId,
        x_function: u16,
    ) -> MessageBuilder {
        MessageBuilder {
            msg: Message {
                header: MsgHeader::new(target, initiator, FunctionCode::Private),
                private: Some(PrivateHeader::new(org, x_function)),
                payload: Arc::default(),
            },
        }
    }

    /// Convenience: a utility-class request.
    pub fn util(target: Tid, initiator: Tid, f: UtilFn) -> MessageBuilder {
        Message::build(target, initiator, FunctionCode::Util(f))
    }

    /// Convenience: an executive-class request.
    pub fn exec(target: Tid, initiator: Tid, f: ExecFn) -> MessageBuilder {
        Message::build(target, initiator, FunctionCode::Exec(f))
    }

    /// Builds the reply to this message. The first payload byte of a
    /// reply is the [`ReplyStatus`]; `body` follows it.
    pub fn reply(&self, status: ReplyStatus, body: &[u8]) -> Message {
        let mut payload = Vec::with_capacity(1 + body.len());
        payload.push(status as u8);
        payload.extend_from_slice(body);
        let mut header = self.header.reply_header();
        let private = self.private;
        header.payload_len = (payload.len() + if private.is_some() { 4 } else { 0 }) as u32;
        Message {
            header,
            private,
            payload: payload.into(),
        }
    }

    /// For reply frames: splits payload into status byte and body.
    pub fn reply_status(&self) -> Option<(ReplyStatus, &[u8])> {
        if !self.header.flags.contains(MsgFlags::IS_REPLY) || self.payload.is_empty() {
            return None;
        }
        Some((ReplyStatus::from_u8(self.payload[0]), &self.payload[1..]))
    }

    /// Decoded function code.
    pub fn function(&self) -> FunctionCode {
        self.header.function_code()
    }

    /// Scheduling priority.
    pub fn priority(&self) -> Priority {
        self.header.flags.priority()
    }

    /// Total wire length of this message.
    pub fn wire_len(&self) -> usize {
        self.header.frame_len()
    }

    /// Encodes the whole frame into `buf`; returns bytes written.
    pub fn encode(&self, buf: &mut [u8]) -> Result<usize, FrameError> {
        let ext = if self.private.is_some() { 4 } else { 0 };
        let mut header = self.header;
        header.payload_len = (self.payload.len() + ext) as u32;
        let total = header.frame_len();
        if buf.len() < total {
            return Err(FrameError::TooShort {
                got: buf.len(),
                need: total,
            });
        }
        header.encode(buf)?;
        let mut off = HEADER_LEN;
        if let Some(p) = &self.private {
            p.encode(buf)?;
            off = PRIVATE_HEADER_LEN;
        }
        buf[off..off + self.payload.len()].copy_from_slice(&self.payload);
        Ok(total)
    }

    /// Encodes into a fresh vector.
    pub fn encode_vec(&self) -> Vec<u8> {
        let ext = if self.private.is_some() { 4 } else { 0 };
        let mut header = self.header;
        header.payload_len = (self.payload.len() + ext) as u32;
        let mut buf = vec![0u8; header.frame_len()];
        self.encode(&mut buf).expect("sized buffer");
        buf
    }

    /// Decodes one frame from the start of `buf`.
    pub fn decode(buf: &[u8]) -> Result<Message, FrameError> {
        let header = MsgHeader::decode(buf)?;
        let total = header.frame_len();
        if buf.len() < total {
            return Err(FrameError::SizeMismatch {
                declared: total,
                actual: buf.len(),
            });
        }
        let (private, payload_off) = if header.is_private() {
            if (header.payload_len as usize) < 4 {
                return Err(FrameError::PrivateTooShort(buf.len()));
            }
            (Some(PrivateHeader::decode(buf)?), PRIVATE_HEADER_LEN)
        } else {
            (None, HEADER_LEN)
        };
        let payload_end = HEADER_LEN + header.payload_len as usize;
        Ok(Message {
            header,
            private,
            payload: buf[payload_off..payload_end].into(),
        })
    }
}

/// Fluent builder for [`Message`].
#[derive(Clone, Debug)]
pub struct MessageBuilder {
    msg: Message,
}

impl MessageBuilder {
    /// Sets the payload bytes.
    pub fn payload(mut self, bytes: impl Into<Arc<[u8]>>) -> MessageBuilder {
        self.msg.payload = bytes.into();
        self
    }

    /// Sets the scheduling priority.
    pub fn priority(mut self, p: Priority) -> MessageBuilder {
        self.msg.header.flags = self.msg.header.flags.with_priority(p);
        self
    }

    /// Marks that the initiator expects a reply.
    pub fn expect_reply(mut self) -> MessageBuilder {
        self.msg.header.flags = self.msg.header.flags.with(MsgFlags::REPLY_EXPECTED);
        self
    }

    /// Marks control traffic (executive accounting bypass).
    pub fn control(mut self) -> MessageBuilder {
        self.msg.header.flags = self.msg.header.flags.with(MsgFlags::CONTROL);
        self
    }

    /// Sets the initiator context echoed by replies.
    pub fn context(mut self, ctx: u32) -> MessageBuilder {
        self.msg.header.initiator_context = ctx;
        self
    }

    /// Sets the application transaction context.
    pub fn transaction(mut self, ctx: u32) -> MessageBuilder {
        self.msg.header.transaction_context = ctx;
        self
    }

    /// Finishes the message, fixing up `payload_len`.
    pub fn finish(mut self) -> Message {
        let ext = if self.msg.private.is_some() { 4 } else { 0 };
        self.msg.header.payload_len = (self.msg.payload.len() + ext) as u32;
        self.msg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: u16) -> Tid {
        Tid::new(v).unwrap()
    }

    #[test]
    fn private_message_roundtrip() {
        let m = Message::build_private(t(0x10), t(0x20), crate::ORG_XDAQ, 0x0001)
            .payload(&b"hello cluster"[..])
            .priority(Priority::new(5).unwrap())
            .expect_reply()
            .context(0x1234_5678)
            .finish();
        let wire = m.encode_vec();
        let d = Message::decode(&wire).unwrap();
        assert_eq!(d, m);
        assert_eq!(d.private.unwrap().x_function, 1);
        assert_eq!(&d.payload[..], b"hello cluster");
    }

    #[test]
    fn standard_message_roundtrip() {
        let m = Message::exec(Tid::EXECUTIVE, Tid::HOST, ExecFn::StatusGet)
            .expect_reply()
            .finish();
        let d = Message::decode(&m.encode_vec()).unwrap();
        assert_eq!(d.function(), FunctionCode::Exec(ExecFn::StatusGet));
        assert!(d.private.is_none());
        assert!(d.payload.is_empty());
    }

    #[test]
    fn reply_carries_status_and_swaps_tids() {
        let req = Message::util(t(0x30), t(0x40), UtilFn::ParamsGet)
            .expect_reply()
            .context(99)
            .finish();
        let rep = req.reply(ReplyStatus::Success, b"value=42");
        assert_eq!(rep.header.target, t(0x40));
        assert_eq!(rep.header.initiator, t(0x30));
        assert_eq!(rep.header.initiator_context, 99);
        let (status, body) = rep.reply_status().unwrap();
        assert!(status.is_ok());
        assert_eq!(body, b"value=42");
        // And it round-trips the wire.
        let d = Message::decode(&rep.encode_vec()).unwrap();
        assert_eq!(d.reply_status().unwrap().0, ReplyStatus::Success);
    }

    #[test]
    fn reply_status_absent_on_requests() {
        let req = Message::util(t(1), t(2), UtilFn::Nop).finish();
        assert!(req.reply_status().is_none());
    }

    #[test]
    fn empty_payload_private_frame_still_has_extension() {
        let m = Message::build_private(t(1), t(2), 0xAAAA, 7).finish();
        assert_eq!(m.header.payload_len, 4);
        let d = Message::decode(&m.encode_vec()).unwrap();
        assert_eq!(d.private.unwrap().org_id, 0xAAAA);
        assert!(d.payload.is_empty());
    }

    #[test]
    fn decode_rejects_truncated_private_frame() {
        let m = Message::build_private(t(1), t(2), 0xAAAA, 7).finish();
        // Corrupt payload_len to 2 (< 4) while keeping the size field
        // consistent: rebuild a standard header claiming private fn.
        let mut h = m.header;
        h.payload_len = 2;
        let mut wire = vec![0u8; h.frame_len()];
        h.encode(&mut wire).unwrap();
        assert!(matches!(
            Message::decode(&wire),
            Err(FrameError::PrivateTooShort(_))
        ));
    }

    #[test]
    fn wire_len_matches_encoding() {
        for n in [0usize, 1, 3, 4, 13, 4096] {
            let m = Message::build_private(t(1), t(2), 1, 1)
                .payload(vec![0xABu8; n])
                .finish();
            assert_eq!(m.encode_vec().len(), m.wire_len(), "payload {n}");
        }
    }

    #[test]
    fn builder_control_and_transaction() {
        let m = Message::exec(Tid::EXECUTIVE, Tid::HOST, ExecFn::SysEnable)
            .control()
            .transaction(0xAA55)
            .finish();
        assert!(m.header.flags.contains(MsgFlags::CONTROL));
        assert_eq!(m.header.transaction_context, 0xAA55);
    }
}
