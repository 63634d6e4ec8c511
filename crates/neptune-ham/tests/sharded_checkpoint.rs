//! Regression: `ShardedHam::checkpoint` used to return at the first failing
//! shard, so one sick shard kept every later shard's WAL from ever folding.
//!
//! One test to a binary on purpose: it asserts an exact delta of the
//! process-wide `neptune_ham_checkpoint_failures_total` counter, which any
//! concurrently failing checkpoint would disturb.

use std::sync::Arc;

use neptune_ham::ham::WAL_FILE;
use neptune_ham::shard::shard_dir;
use neptune_ham::types::{Protections, MAIN_CONTEXT};
use neptune_ham::ShardedHam;
use neptune_storage::{FaultKind, FaultVfs};

const SHARDS: usize = 3;

#[test]
fn a_failing_shard_does_not_stop_later_shards_from_folding() {
    let dir = std::env::temp_dir().join(format!("neptune-shard-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let vfs = FaultVfs::new();
    let (sharded, _, _) =
        ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, SHARDS).unwrap();
    // A commit on every shard: MAIN lives on shard 0, contexts 1 and 2 on
    // shards 1 and 2. Forked inside an explicit transaction, they log
    // MAIN's graph rather than a reference to it, so no shard's fold waits
    // on another's (a shard holding a reference folds before its parent's).
    let mut ctxs = vec![MAIN_CONTEXT];
    sharded.begin_transaction().unwrap();
    for _ in 1..SHARDS {
        ctxs.push(sharded.create_context(MAIN_CONTEXT).unwrap());
    }
    sharded.commit_transaction().unwrap();
    for ctx in ctxs {
        sharded.lock_home(ctx).unwrap().add_node(ctx, true).unwrap();
    }
    let wal_len = |k| {
        std::fs::metadata(shard_dir(&dir, k).join(WAL_FILE))
            .unwrap()
            .len()
    };
    let unfolded: Vec<u64> = (0..SHARDS).map(wal_len).collect();

    // The middle shard's first fsync is its snapshot file's; the six before
    // it are shard 0's checkpoint (snapshot file and directory, the new
    // node's blob, `nodes/`, two for the WAL fold).
    vfs.arm(FaultKind::FailSync, 6);
    let failures = neptune_obs::registry().counter("neptune_ham_checkpoint_failures_total");
    let failures_before = failures.get();
    let err = sharded.checkpoint().unwrap_err();
    assert!(err.to_string().contains("fail_sync"), "{err}");
    assert_eq!(vfs.injected(), 1);
    assert_eq!(
        failures.get() - failures_before,
        1,
        "one failed shard, one count"
    );

    assert!(wal_len(0) < unfolded[0], "shard 0 folded before the fault");
    assert_eq!(
        wal_len(1),
        unfolded[1],
        "the faulted shard keeps its full log"
    );
    assert!(
        wal_len(2) < unfolded[2],
        "the shard after the failing one must still fold its WAL"
    );

    // The sick shard recovers on the next attempt; the healthy ones are
    // idle by then.
    sharded.checkpoint().unwrap();
    assert!(wal_len(1) < unfolded[1]);
    drop(sharded);
    let _ = std::fs::remove_dir_all(&dir);
}
