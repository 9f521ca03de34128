//! The client half of `bridge-edge/1` run requests, for the open-loop
//! generator.
//!
//! `EdgeClient` owns its socket and reads and writes through one handle,
//! so a writer that sends on a schedule cannot share it with a thread
//! that reads replies. The open-loop workload therefore frames requests
//! and decodes replies itself, over two handles of one socket. Any drift
//! from the server's codec shows up as bad-request replies or oracle
//! mismatches, both counted as failures.

use bridge_dbt::MdaStrategy;
use bridge_serve::edge::RunOutcome;
use bridge_serve::{EdgeStatus, RunRequest};
use std::io::Read;

const OP_RUN: u8 = 1;
const BODY_RUN: u8 = 1;
/// Largest reply frame accepted (the server's own frame bound).
const MAX_FRAME: usize = 4 << 20;

/// One length-prefixed run-request frame.
pub fn encode_run(id: u64, tenant: u32, deadline_ms: u32, req: &RunRequest) -> Vec<u8> {
    let (tag, a, b) = req.kernel.to_wire();
    let strategy = MdaStrategy::ALL
        .iter()
        .position(|&s| s == req.strategy)
        .expect("strategy in ALL") as u8;
    let mut p = vec![OP_RUN];
    p.extend_from_slice(&id.to_le_bytes());
    p.extend_from_slice(&tenant.to_le_bytes());
    p.extend_from_slice(&deadline_ms.to_le_bytes());
    p.push(tag);
    p.extend_from_slice(&a.to_le_bytes());
    p.extend_from_slice(&b.to_le_bytes());
    p.push(strategy);
    p.extend_from_slice(&req.hot_threshold.to_le_bytes());
    p.push(u8::from(req.trace));
    let mut frame = (p.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&p);
    frame
}

/// Reads one length-prefixed frame.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let n = u32::from_le_bytes(len) as usize;
    if n > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "reply frame too large",
        ));
    }
    let mut buf = vec![0u8; n];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

struct Rd<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Rd<'_> {
    fn bytes(&mut self, n: usize) -> Option<&[u8]> {
        let s = self.b.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|s| s[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.bytes(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.bytes(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }
}

/// Decodes a reply to a run request: its id, status and, for `Ok`, the
/// run outcome. `None` on a malformed frame.
pub fn decode_reply(frame: &[u8]) -> Option<(u64, EdgeStatus, Option<RunOutcome>)> {
    let mut rd = Rd { b: frame, pos: 0 };
    let id = rd.u64()?;
    let status = EdgeStatus::from_code(u32::from(rd.u8()?))?;
    if rd.u8()? != BODY_RUN {
        return Some((id, status, None));
    }
    let cycles = rd.u64()?;
    let len = rd.u32()? as usize;
    let report_text = String::from_utf8(rd.bytes(len)?.to_vec()).ok()?;
    let ranges = rd.u32()?;
    let mut memory = Vec::new();
    for _ in 0..ranges {
        let addr = rd.u32()?;
        let n = rd.u32()? as usize;
        memory.push((addr, rd.bytes(n)?.to_vec()));
    }
    if rd.pos != frame.len() {
        return None;
    }
    Some((
        id,
        status,
        Some(RunOutcome {
            cycles,
            report_text,
            memory,
        }),
    ))
}
