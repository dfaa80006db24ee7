//! Control-plane wire formats and the evidence-rule receive.
//!
//! Every adaptation decision is a replicated function of one per-cycle
//! [`ControlBlob`] the active root assembles and posts to every active
//! rank; removed ranks instead get a per-cycle [`Status`]. Both are
//! encoded here and nowhere else, so the bytes on the wire — and with
//! them the virtual timeline — are pinned by this module's fixtures.
//!
//! # `ControlBlob` layout
//!
//! A flat `f64` array, sections in order:
//!
//! | section   | length          | present when                     |
//! |-----------|-----------------|----------------------------------|
//! | `samples` | active members  | always                           |
//! | `loads`   | world size      | always                           |
//! | `online`  | world − seed    | always (empty when fully seeded) |
//! | `alive`   | world size      | failure detection is on          |
//!
//! A sample is a cycle time in seconds, or a sentinel for a peer whose
//! sample missed the root's timeout: `-1.0` when its `dmpi_ps` monitor
//! also reads dead (a crash suspect), `-2.0` when the monitor still
//! answers (overload). Both are negative, so they never collide with a
//! real time. Loads are `dmpi_ps − 1` per world node; flags are `1.0` or
//! `0.0`. The optional sections are absent rather than empty so classic
//! runs keep the control plane they always had.

use dynmpi_comm::{from_bytes, to_bytes, HostMeters};

/// One active member's control sample for a cycle.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Sample {
    /// The member's cycle time, seconds.
    Time(f64),
    /// No sample within the timeout, and the monitor reads dead.
    Silent,
    /// No sample within the timeout, but the monitor answers.
    Stalled,
}

/// The per-cycle state the root broadcasts to the active ranks.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct ControlBlob {
    /// Per active member, in relative-rank order.
    pub samples: Vec<Sample>,
    /// Competing processes per world node.
    pub loads: Vec<u32>,
    /// Online flags of the non-seed world nodes `seed..wsize`.
    pub online: Vec<bool>,
    /// Raw monitor liveness per world node (failure detection only).
    pub alive: Option<Vec<bool>>,
}

impl ControlBlob {
    /// Sample sentinel: the peer is silent and its monitor reads dead.
    const CTRL_SILENT: f64 = -1.0;
    /// Sample sentinel: the peer is silent but its monitor still answers.
    const CTRL_STALLED: f64 = -2.0;

    /// Is world node `n`'s monitor alive? Always true without failure
    /// detection.
    pub fn is_alive(&self, n: usize) -> bool {
        self.alive.as_ref().is_none_or(|a| a[n])
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .map(|s| match *s {
                Sample::Time(t) => t,
                Sample::Silent => Self::CTRL_SILENT,
                Sample::Stalled => Self::CTRL_STALLED,
            })
            .collect();
        v.extend(self.loads.iter().map(|&l| f64::from(l)));
        v.extend(self.online.iter().map(|&b| f64::from(u8::from(b))));
        v.extend(self.alive.iter().flatten().map(|&b| f64::from(u8::from(b))));
        to_bytes(&v)
    }

    /// Decodes a blob of `na` samples for a world of `wsize` nodes whose
    /// first `seed` are seed nodes.
    pub fn decode(bytes: &[u8], na: usize, wsize: usize, seed: usize) -> Self {
        let v: Vec<f64> = from_bytes(bytes);
        let (samples, rest) = v.split_at(na);
        let (loads, rest) = rest.split_at(wsize);
        let (online, alive) = rest.split_at(wsize - seed);
        assert!(
            alive.is_empty() || alive.len() == wsize,
            "malformed control blob"
        );
        ControlBlob {
            samples: samples
                .iter()
                .map(|&x| match x {
                    Self::CTRL_SILENT => Sample::Silent,
                    Self::CTRL_STALLED => Sample::Stalled,
                    t => Sample::Time(t),
                })
                .collect(),
            loads: loads.iter().map(|&x| x as u32).collect(),
            online: online.iter().map(|&x| x == 1.0).collect(),
            alive: (!alive.is_empty()).then(|| alive.iter().map(|&x| x == 1.0).collect()),
        }
    }
}

/// What a rejoining rank needs to resynchronize its replicated decision
/// state with the actives.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Resync {
    /// The load vector the actives balanced against.
    pub loads: Vec<u32>,
    /// The actives' rejoin streaks: without them a readmitted rank would
    /// disagree about which other removed node rejoins next.
    pub clear_streak: Vec<u32>,
    /// Global per-row weights.
    pub weights: Vec<f64>,
}

/// The per-cycle status the active root sends each removed rank: a
/// `u64` header `[cycle, n, members[n], counts[n], epoch]`, followed —
/// only for a rank that is in `members` (it is rejoining) — by an `f64`
/// tail `loads[wsize] ++ clear_streak[wsize] ++ weights[nrows]`.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Status {
    pub cycle: u64,
    pub members: Vec<usize>,
    pub counts: Vec<usize>,
    /// Control epoch, so a rejoin resumes with aligned tags.
    pub epoch: u64,
    pub resync: Option<Resync>,
}

impl Status {
    pub fn encode(&self) -> Vec<u8> {
        let mut v: Vec<u64> = Vec::with_capacity(3 + 2 * self.members.len());
        v.push(self.cycle);
        v.push(self.members.len() as u64);
        v.extend(self.members.iter().map(|&m| m as u64));
        v.extend(self.counts.iter().map(|&c| c as u64));
        v.push(self.epoch);
        let mut bytes = to_bytes(&v);
        if let Some(r) = &self.resync {
            let mut tail: Vec<f64> = r.loads.iter().map(|&l| f64::from(l)).collect();
            tail.extend(r.clear_streak.iter().map(|&s| f64::from(s)));
            tail.extend_from_slice(&r.weights);
            bytes.extend_from_slice(&to_bytes(&tail));
        }
        bytes
    }

    /// Decodes a status for a world of `wsize` nodes.
    pub fn decode(bytes: &[u8], wsize: usize) -> Self {
        let nm = u64::from_le_bytes(bytes[8..16].try_into().expect("status header")) as usize;
        let header_len = 8 * (3 + 2 * nm);
        let v: Vec<u64> = from_bytes(&bytes[..header_len]);
        let tail: Vec<f64> = from_bytes(&bytes[header_len..]);
        let resync = (!tail.is_empty()).then(|| {
            assert!(tail.len() >= 2 * wsize, "malformed rejoin status");
            Resync {
                loads: tail[..wsize].iter().map(|&x| x as u32).collect(),
                clear_streak: tail[wsize..2 * wsize].iter().map(|&x| x as u32).collect(),
                weights: tail[2 * wsize..].to_vec(),
            }
        });
        Status {
            cycle: v[0],
            members: v[2..2 + nm].iter().map(|&m| m as usize).collect(),
            counts: v[2 + nm..2 + 2 * nm].iter().map(|&c| c as usize).collect(),
            epoch: v[2 + 2 * nm],
            resync,
        }
    }
}

/// The evidence-rule receive. `None` for `timeout` is a plain blocking
/// receive. With `Some`, a bare timeout is not evidence of anything — a
/// live peer's message may simply take longer than the timeout to arrive,
/// or the root may be drifting one timeout per silent cycle while it
/// confirms a death — so it only re-arms the wait. The receive gives up,
/// returning `None`, only on the evidence the failure detector treats as
/// death: `src`'s `dmpi_ps` monitor reading dead.
pub(crate) fn recv_unless_dead<T: HostMeters>(
    t: &T,
    src: usize,
    tag: u64,
    timeout: Option<f64>,
) -> Option<Vec<u8>> {
    let Some(secs) = timeout else {
        return Some(t.recv_bytes(src, tag));
    };
    loop {
        match t.recv_bytes_timeout(src, tag, secs) {
            Ok(bytes) => return Some(bytes),
            Err(_) if t.dmpi_ps(src) == 0 => return None,
            Err(_) => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The old positional encoding, spelled out by hand: samples, loads,
    /// online flags, then (optionally) alive flags, all as `f64`.
    fn positional(samples: &[f64], loads: &[f64], online: &[f64], alive: &[f64]) -> Vec<u8> {
        let v: Vec<f64> = [samples, loads, online, alive].concat();
        to_bytes(&v)
    }

    #[test]
    fn control_blob_fixtures_match_the_positional_layout() {
        use Sample::{Silent, Stalled, Time};
        // (name, blob, seed, expected bytes)
        let cases = [
            (
                "classic",
                ControlBlob {
                    samples: vec![Time(0.25), Time(1.5), Time(0.0)],
                    loads: vec![0, 2, 0],
                    online: vec![],
                    alive: None,
                },
                3,
                positional(&[0.25, 1.5, 0.0], &[0.0, 2.0, 0.0], &[], &[]),
            ),
            (
                "online flags (seed < wsize)",
                ControlBlob {
                    samples: vec![Time(0.125), Time(0.5)],
                    loads: vec![1, 0, 0, 3],
                    online: vec![true, false],
                    alive: None,
                },
                2,
                positional(&[0.125, 0.5], &[1.0, 0.0, 0.0, 3.0], &[1.0, 0.0], &[]),
            ),
            (
                "alive flags (failure detection)",
                ControlBlob {
                    samples: vec![Time(0.75), Silent, Stalled],
                    loads: vec![0, 0, 4],
                    online: vec![],
                    alive: Some(vec![true, false, true]),
                },
                3,
                positional(&[0.75, -1.0, -2.0], &[0.0, 0.0, 4.0], &[], &[1.0, 0.0, 1.0]),
            ),
            (
                "online and alive flags",
                ControlBlob {
                    samples: vec![Stalled, Time(2.0), Silent],
                    loads: vec![0, 1, 0, 0],
                    online: vec![false],
                    alive: Some(vec![true, true, false, true]),
                },
                3,
                positional(
                    &[-2.0, 2.0, -1.0],
                    &[0.0, 1.0, 0.0, 0.0],
                    &[0.0],
                    &[1.0, 1.0, 0.0, 1.0],
                ),
            ),
        ];
        for (name, blob, seed, want) in cases {
            let bytes = blob.encode();
            assert_eq!(bytes, want, "{name}: wire bytes changed");
            let na = blob.samples.len();
            let back = ControlBlob::decode(&bytes, na, blob.loads.len(), seed);
            assert_eq!(back, blob, "{name}: decode(encode(x)) != x");
        }
    }

    #[test]
    fn missing_alive_section_reads_alive() {
        let blob = ControlBlob {
            samples: vec![Sample::Time(1.0)],
            loads: vec![0, 0],
            online: vec![],
            alive: None,
        };
        assert!(blob.is_alive(0) && blob.is_alive(1));
    }

    #[test]
    fn status_matches_the_positional_layout() {
        let resync = Resync {
            loads: vec![0, 2, 0],
            clear_streak: vec![1, 0, 4],
            weights: vec![0.5, 0.25, 1.0, 2.0],
        };
        for tail in [None, Some(resync)] {
            let s = Status {
                cycle: 17,
                members: vec![0, 2],
                counts: vec![3, 1],
                epoch: 5,
                resync: tail.clone(),
            };
            let mut want = to_bytes(&[17u64, 2, 0, 2, 3, 1, 5]);
            if tail.is_some() {
                want.extend(to_bytes(&[
                    0.0f64, 2.0, 0.0, 1.0, 0.0, 4.0, 0.5, 0.25, 1.0, 2.0,
                ]));
            }
            let bytes = s.encode();
            assert_eq!(bytes, want);
            assert_eq!(Status::decode(&bytes, 3), s);
        }
    }
}
