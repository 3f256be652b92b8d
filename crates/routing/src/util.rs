//! Helpers shared by protocol implementations.

use dtn_sim::{ContactCtx, MessageId, TransferPlan};

/// First message buffered here that is destined to the current peer and has
/// not yet been sent during this contact — the universal "deliver first" rule.
pub fn find_deliverable(ctx: &ContactCtx<'_>) -> Option<MessageId> {
    ctx.buf
        .destined_to(ctx.peer)
        .find(|id| !ctx.sent.contains(id))
}

/// Plans a custody-transferring delivery of the first deliverable message.
pub fn deliver_forward(ctx: &ContactCtx<'_>) -> Option<TransferPlan> {
    find_deliverable(ctx).map(TransferPlan::forward)
}

/// Plans a replicating delivery of the first deliverable message (the sender
/// keeps its copy, as epidemic-family protocols do).
pub fn deliver_copy(ctx: &ContactCtx<'_>) -> Option<TransferPlan> {
    find_deliverable(ctx).map(TransferPlan::copy)
}

/// Number of bytes a control structure of `elems` f64-sized elements plus a
/// small header occupies on the wire; used for overhead accounting.
pub fn control_size(elems: usize) -> u64 {
    8 + 8 * elems as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_size_scales() {
        assert_eq!(control_size(0), 8);
        assert_eq!(control_size(10), 88);
    }
}
