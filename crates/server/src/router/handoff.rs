//! Spool transfer: the one path that moves a shard's spooled debt to a
//! new owner, and the failover, join, leave and rejoin handoffs built on
//! it.
//!
//! Every move is a [`transfer`] of one [`spool::replay`]. It skips the
//! ids the router already owes and those the caller's filter drops, posts
//! each pending job to its new owner, and publishes terminal documents
//! and remaps into one of two first-writer-wins tables. The table decides
//! the rest:
//!
//! - **Staged** — the join, the graceful leave's first pass and the
//!   rejoin's stale-spool pass write into the handoff staging table,
//!   which only [`cutover`] publishes. Each planned record passes
//!   [`stream_gate`] once, and the first refusal aborts the transfer:
//!   nothing is visible yet, so the caller rolls back by clearing the
//!   table.
//! - **Owed** — failover and the leave's post-cutover straggler sweep
//!   write straight into the owed table, which reads already consult.
//!   They are never paced or aborted: every record that can be placed
//!   is, and the refusals are counted.

use super::ring::{self, Ring};
use super::spool::{self, SpoolReplay};
use super::{Membership, Owed, RouterState, Shard};
use sspc_common::json::Value;
use sspc_common::{Error, Result};
use std::collections::hash_map::Entry;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Where a [`transfer`] publishes what it moves.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dest {
    /// The handoff staging table, published by the next [`cutover`].
    Staged,
    /// The owed table, served at once.
    Owed,
}

/// Record counts of one [`transfer`].
#[derive(Default)]
struct Tally {
    /// Records that passed both filters.
    planned: u64,
    /// Records newly published into the destination table.
    moved: u64,
    /// Pending jobs no shard would take (an owed transfer only; a staged
    /// one aborts at the first).
    refused: u64,
}

/// Moves `debt` into `dest`: every record whose id the router does not
/// owe yet and `keep` accepts — terminal documents as they are, pending
/// jobs wherever `place(old_id, raw)` posts them. A key already in the
/// destination keeps its entry. See the module doc for how `dest` paces
/// and aborts.
fn transfer(
    state: &RouterState,
    debt: SpoolReplay,
    keep: impl Fn(u64) -> bool,
    place: impl Fn(u64, &Value) -> Option<(u16, u64)>,
    dest: Dest,
) -> Result<Tally> {
    let table = match dest {
        Dest::Staged => &state.handoff,
        Dest::Owed => &state.owed,
    };
    let records = debt
        .terminal
        .into_iter()
        .map(|(id, doc)| (id, doc, true))
        .chain(debt.pending.into_iter().map(|(id, raw)| (id, raw, false)));
    let mut tally = Tally::default();
    for (old_id, value, terminal) in records {
        if state.owes(old_id) || !keep(old_id) {
            continue;
        }
        tally.planned += 1;
        if dest == Dest::Staged {
            stream_gate(state)?;
        }
        let entry = if terminal {
            Owed::Terminal(value)
        } else if let Some((shard, new_id)) = place(old_id, &value) {
            Owed::Remapped { shard, new_id }
        } else if dest == Dest::Staged {
            return Err(Error::InvalidParameter(format!(
                "no shard would take job {old_id}"
            )));
        } else {
            tally.refused += 1;
            continue;
        };
        let mut table = table.lock().expect("transfer table poisoned");
        if let Entry::Vacant(slot) = table.entry(old_id) {
            slot.insert(entry);
            tally.moved += 1;
        }
    }
    Ok(tally)
}

/// POSTs one spooled job to the first of `candidates` that acks it, in up
/// to three passes for transient `503`s. Returns that shard and the new
/// id the job was acked under.
fn post_spooled(candidates: &[Arc<Shard>], raw: &Value) -> Option<(u16, u64)> {
    for attempt in 0..3 {
        if attempt > 0 {
            std::thread::sleep(Duration::from_millis(50));
        }
        for shard in candidates {
            if let Ok((202, body)) = crate::http::request(&shard.addr, "POST", "/jobs", Some(raw)) {
                if let Some(new_id) = body.get("job").and_then(Value::as_u64) {
                    return Some((shard.id, new_id));
                }
            }
        }
    }
    None
}

/// The live shards among `ids`, in order.
fn live(state: &RouterState, ids: Vec<u16>) -> Vec<Arc<Shard>> {
    ids.into_iter()
        .filter_map(|id| state.shard(id))
        .filter(|shard| shard.alive.load(Ordering::SeqCst))
        .collect()
}

/// Replays a dead shard's spool into the owed table exactly once per
/// death, blocking concurrent callers until the table is complete:
/// terminal jobs become [`Owed::Terminal`], acked-but-unfinished jobs are
/// re-posted along the ring's live candidates and become
/// [`Owed::Remapped`]. Ids the router already owes — from an earlier
/// death of a rejoined shard, or a handoff — are not posted again.
pub(super) fn ensure_failed_over(state: &RouterState, shard: &Shard) {
    let _serialize = state.replay_lock.lock().expect("replay lock poisoned");
    if shard.failed_over.load(Ordering::SeqCst) {
        return;
    }
    if let Some(dir) = &state.spool_dir {
        let place = |old_id, raw: &Value| {
            let candidates = state.ring.lock().expect("ring poisoned").candidates(old_id);
            let placed = post_spooled(&live(state, candidates), raw);
            if placed.is_some() {
                state.metrics.replayed.fetch_add(1, Ordering::Relaxed);
            }
            placed
        };
        // An owed transfer never fails. A job no survivor took gets no
        // entry; the shard's rejoin hands it off.
        let debt = spool::replay(&spool::spool_path(dir, shard.id));
        let _ = transfer(state, debt, |_| true, place, Dest::Owed);
    }
    shard.failed_over.store(true, Ordering::SeqCst);
}

/// One handoff stream step: the `handoff.stream` fault point (an armed
/// `err` aborts the membership change; `crash` kills the router there,
/// which the crash-torture sweep exploits) plus the optional pacing
/// throttle that bounds a handoff's pressure on in-flight traffic.
fn stream_gate(state: &RouterState) -> Result<()> {
    sspc_common::fault::point("handoff.stream")?;
    if !state.handoff_throttle.is_zero() {
        std::thread::sleep(state.handoff_throttle);
    }
    Ok(())
}

/// Does the (alive) shard still answer for `id`? A restarted shard with
/// a state dir recovered its journal and does; one without lost the job
/// — that orphan is what the rejoin handoff rescues.
fn shard_knows(shard: &Shard, id: u64) -> bool {
    matches!(
        crate::http::request(&shard.addr, "GET", &format!("/jobs/{id}"), None),
        Ok((200, _))
    )
}

/// The cutover: flips routing atomically under the `rebalancing` flag
/// (submissions during the flip answer `503 rebalancing`), merging the
/// staged handoff table into `owed`. Failover entries win ties — both
/// copies compute identical results, and the failover one is already
/// being served.
fn cutover(state: &RouterState, flip: impl FnOnce(&mut Ring)) -> Result<()> {
    sspc_common::fault::point("handoff.cutover")?;
    state.rebalancing.store(true, Ordering::SeqCst);
    flip(&mut state.ring.lock().expect("ring poisoned"));
    let staged: Vec<(u64, Owed)> = state
        .handoff
        .lock()
        .expect("handoff poisoned")
        .drain()
        .collect();
    {
        let mut owed = state.owed.lock().expect("owed poisoned");
        for (id, entry) in staged {
            owed.entry(id).or_insert(entry);
        }
    }
    state.rebalancing.store(false, Ordering::SeqCst);
    state.metrics.handoffs.fetch_add(1, Ordering::Relaxed);
    Ok(())
}

/// Stages a recovered/new shard's **own stale spool**: records the shard
/// no longer answers for (killed before finishing, restarted without its
/// state) are re-posted to it, so no previously-acked job is silently
/// lost on rejoin.
fn handoff_stale_spool(state: &RouterState, joiner: &Arc<Shard>) -> Result<Tally> {
    let Some(dir) = &state.spool_dir else {
        return Ok(Tally::default());
    };
    transfer(
        state,
        spool::replay(&spool::spool_path(dir, joiner.id)),
        |id| !shard_knows(joiner, id),
        |_, raw| post_spooled(std::slice::from_ref(joiner), raw),
        Dest::Staged,
    )
}

/// The join handoff: stage the joiner's stale spool, then every donor's
/// pending records whose ring owner the join moves onto the newcomer
/// (the rebalance plan — exactly the keys whose owner changed), then cut
/// over. Reads are served by the old owners throughout; only the cutover
/// publishes the staged remaps and the new ring. Returns `(planned,
/// moved)` record counts.
pub(super) fn handoff_join(state: &RouterState, joiner: &Arc<Shard>) -> Result<(u64, u64)> {
    let mut tally = handoff_stale_spool(state, joiner)?;
    if let Some(dir) = &state.spool_dir {
        let before = state.ring.lock().expect("ring poisoned").clone();
        let mut after = before.clone();
        after.add(joiner.id);
        let moves_to_joiner = |id| {
            ring::rebalance_plan(&before, &after, &[id])
                .iter()
                .any(|m| m.to == joiner.id)
        };
        for donor in state.roster() {
            if donor.id == joiner.id
                || !donor.alive.load(Ordering::SeqCst)
                || donor.membership() != Membership::Active
            {
                continue;
            }
            let mut debt = spool::replay(&spool::spool_path(dir, donor.id));
            // The donor stays up and keeps serving its finished jobs.
            debt.terminal.clear();
            let streamed = transfer(
                state,
                debt,
                moves_to_joiner,
                |_, raw| post_spooled(std::slice::from_ref(joiner), raw),
                Dest::Staged,
            )?;
            tally.planned += streamed.planned;
            tally.moved += streamed.moved;
        }
    }
    cutover(state, |ring| ring.add(joiner.id))?;
    state
        .metrics
        .handed_off
        .fetch_add(tally.moved, Ordering::Relaxed);
    joiner.set_membership(Membership::Active);
    Ok((tally.planned, tally.moved))
}

/// The graceful-leave handoff — the join in reverse: every record in the
/// leaver's spool moves off it (terminal docs as they are, pending jobs
/// re-posted along the post-leave ring), then the cutover removes the
/// leaver. Reads are served by the leaver until cutover. A refusal after
/// the cutover is an `Err` too, with every other straggler already owed:
/// the caller leaves the shard `leaving`, and a retried leave places the
/// rest. Returns `(planned, moved)` record counts.
pub(super) fn handoff_leave(state: &RouterState, leaver: &Shard) -> Result<(u64, u64)> {
    let dir = state.spool_dir.as_ref().ok_or_else(|| {
        Error::InvalidParameter(
            "graceful leave requires a spool (--spool-dir); without one the shard's \
             acked jobs cannot be handed off"
                .into(),
        )
    })?;
    let spool = spool::spool_path(dir, leaver.id);
    let mut after = state.ring.lock().expect("ring poisoned").clone();
    after.remove(leaver.id);
    let place = |old_id, raw: &Value| post_spooled(&live(state, after.candidates(old_id)), raw);
    let staged = transfer(state, spool::replay(&spool), |_| true, place, Dest::Staged)?;
    cutover(state, |ring| ring.remove(leaver.id))?;
    // Second sweep: a submission proxied to the leaver just before it
    // was marked `leaving` may have acked after the first spool read.
    // After cutover no new work can reach the leaver, so replaying the
    // spool once more catches every straggler.
    let swept = transfer(state, spool::replay(&spool), |_| true, place, Dest::Owed)?;
    let moved = staged.moved + swept.moved;
    state.metrics.handed_off.fetch_add(moved, Ordering::Relaxed);
    if swept.refused > 0 {
        return Err(Error::InvalidParameter(format!(
            "no surviving shard would take {} straggler job(s) from leaving shard {}",
            swept.refused, leaver.id
        )));
    }
    Ok((staged.planned + swept.planned, moved))
}

/// Rejoins a revived shard through the handoff path: its stale spool is
/// staged (records it no longer answers for are re-posted to it), *then*
/// the cutover publishes them and puts it back on the ring. The failover
/// latch resets so a second death replays the records nobody owes yet. A
/// shard that has left the roster (`Gone`) never rejoins: the prober may
/// still hold it in a roster snapshot taken before the leave.
pub(super) fn rejoin(state: &RouterState, shard: &Arc<Shard>) {
    let _op = state
        .membership_lock
        .lock()
        .expect("membership lock poisoned");
    if shard.alive.load(Ordering::SeqCst) || shard.membership() == Membership::Gone {
        return;
    }
    let rejoined = handoff_stale_spool(state, shard)
        .and_then(|tally| cutover(state, |ring| ring.add(shard.id)).map(|()| tally.moved));
    match rejoined {
        Ok(moved) => {
            state.metrics.handed_off.fetch_add(moved, Ordering::Relaxed);
            shard.failures.store(0, Ordering::SeqCst);
            shard.failed_over.store(false, Ordering::SeqCst);
            shard.set_membership(Membership::Active);
            shard.alive.store(true, Ordering::SeqCst);
        }
        Err(_) => {
            // Leave the shard down; the next successful probe retries
            // the rejoin from scratch.
            state.handoff.lock().expect("handoff poisoned").clear();
        }
    }
}
