//! The full-image expansion that [`super::SegmentProgram::expand`]
//! replaced, kept as a test oracle.
//!
//! It tracks the whole 65 536-word memory image, initialized to the
//! power-up background, exactly as the original implementation did. The
//! sparse write overlay must produce the same vectors bit for bit.

use super::{power_up_word, step_lcg, AddrMode, DataMode, OpMode, SegmentProgram};
use crate::pattern::Pattern;
use crate::vector::{MemOp, TestVector, ROW_SHIFT};

/// Expands `program` with a full memory image.
pub(super) fn expand(program: &SegmentProgram) -> Pattern {
    let mut image: Vec<u16> = (0..=u16::MAX).map(power_up_word).collect();
    let mut vectors = Vec::new();
    let mut prev_data: u16 = 0;
    'outer: for _ in 0..program.loops {
        for seg in &program.segments {
            let mut lcg_addr = u32::from(match seg.addr {
                AddrMode::Lcg { seed } => seed,
                _ => 0,
            })
            .wrapping_add(1);
            let mut lcg_data = u32::from(match seg.data {
                DataMode::Lcg(seed) => seed,
                _ => 0,
            })
            .wrapping_add(1);
            let mut pair_addr = seg.base;
            let mut ping_pong = [seg.base; 2];
            for i in 0..seg.len {
                let i_usize = usize::from(i);
                let addr = match seg.addr {
                    AddrMode::Sequential { stride } => {
                        seg.base.wrapping_add((stride as u16).wrapping_mul(i))
                    }
                    AddrMode::Toggle { mask } => {
                        if i % 2 == 0 {
                            seg.base
                        } else {
                            seg.base ^ mask
                        }
                    }
                    AddrMode::Hold => seg.base,
                    AddrMode::Lcg { .. } => {
                        lcg_addr = step_lcg(lcg_addr);
                        (lcg_addr >> 8) as u16
                    }
                    AddrMode::RowBounce { distance } => {
                        if i % 2 == 0 {
                            seg.base
                        } else {
                            seg.base.wrapping_add(u16::from(distance) << ROW_SHIFT)
                        }
                    }
                };
                let (op, addr) = match seg.op {
                    OpMode::WriteOnly => (MemOp::Write, addr),
                    OpMode::ReadOnly => (MemOp::Read, addr),
                    OpMode::WritePairRead => {
                        // Even cycles pick a fresh address and write it; odd
                        // cycles read the address just written.
                        if i % 2 == 0 {
                            pair_addr = addr;
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, pair_addr)
                        }
                    }
                    OpMode::AlternateWriteRead => {
                        if i % 2 == 0 {
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, addr)
                        }
                    }
                    OpMode::WriteOnceReadBurst => {
                        if i < 2 {
                            ping_pong[usize::from(i)] = addr;
                            (MemOp::Write, addr)
                        } else {
                            (MemOp::Read, ping_pong[usize::from(i % 2)])
                        }
                    }
                };
                let data = match op {
                    MemOp::Read => image[usize::from(addr)],
                    MemOp::Write | MemOp::Nop => match seg.data {
                        DataMode::Constant(w) => w,
                        DataMode::Alternating(w) => {
                            if i % 2 == 0 {
                                w
                            } else {
                                !w
                            }
                        }
                        DataMode::InvertPrevious => !prev_data,
                        DataMode::WalkingOne => 1u16 << (i_usize % 16),
                        DataMode::Lcg(_) => {
                            lcg_data = step_lcg(lcg_data);
                            (lcg_data >> 12) as u16
                        }
                    },
                };
                if op == MemOp::Write {
                    image[usize::from(addr)] = data;
                }
                prev_data = data;
                vectors.push(TestVector::new(op, addr, data));
                if vectors.len() >= crate::MAX_PATTERN_LEN {
                    break 'outer;
                }
            }
        }
    }
    Pattern::new_clamped(vectors)
}
