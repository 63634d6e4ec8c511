//! Fixture: lock-hierarchy violations (DESIGN.md §9).

pub fn inverted(shared: &Shared) {
    let home = shared.lock_home(ctx);
    let gate = shared.lock_gate();
    drop(gate);
    drop(home);
}

pub fn blocking_under_shard(shared: &Shared) {
    let home = shared.lock_home(ctx);
    std::thread::sleep(core::time::Duration::from_millis(1));
    drop(home);
}

pub fn reentrant(shared: &Shared) {
    let first = shared.lock_shard(0);
    let second = shared.lock_home(ctx);
    drop(second);
    drop(first);
}

pub fn view_under_gate(shared: &Shared) {
    let gate = shared.lock_gate();
    let view = shared.load_view();
    drop(view);
    drop(gate);
}

pub fn view_under_shard(shared: &Shared) {
    let home = shared.lock_home(ctx);
    let view = shared.published_view.load();
    drop(view);
    drop(home);
}
