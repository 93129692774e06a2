//! Fixture: L2 `wetlab-under-lock` must fire exactly once — the store's
//! retrieval-round executor called while a shard guard binding is live.

fn main() {
    let shard = std::sync::Mutex::new(Vec::<u8>::new());
    let guard = shard
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _out = execute_round(&guard);
}

fn execute_round(_tubes: &[u8]) -> usize {
    0
}
