//! A 4-shard replicated solve cluster surviving the loss of a shard.
//!
//! Registers a handful of tenants, warms the cluster, then kills the
//! primary shard of the hottest tenant mid-traffic. Requests queued on
//! the dead shard fail over to its ring replica (warm, thanks to
//! hot-factor replication) and every ticket still resolves; when the
//! shard is revived it is rebalanced — its primary keyspace is copied
//! back from the surviving replicas — and serves cache hits again.
//!
//! Run with `cargo run --release --example sharded_service`.

use conflux_repro::denselin::Matrix;
use conflux_repro::denselin::SplitMix64;
use conflux_repro::simnet::RetryPolicy;
use conflux_repro::solversrv::{
    serve_cluster, solve_with_retry, ClusterConfig, Fingerprint, MatrixKind, SolveRequest,
};

fn main() {
    let n = 192;
    let tenants = 6usize;
    let mut rng = SplitMix64::new(0x5AADED);
    let mats: Vec<Matrix> = (0..tenants)
        .map(|_| Matrix::random_diagonally_dominant(&mut rng, n))
        .collect();

    // one worker per shard is ClusterConfig's default `service` setting
    let cfg = ClusterConfig {
        shards: 4,
        replicas: 2,
        ..ClusterConfig::default()
    };
    let policy = RetryPolicy::default();

    let ((), report) = serve_cluster(cfg, |h| {
        for (id, a) in mats.iter().enumerate() {
            h.register_matrix(id as u64, a.clone(), MatrixKind::General);
        }
        let hot_fp = Fingerprint::of(&mats[0]);
        let route = h.route_of(hot_fp);
        println!("tenant 0 routes to shards {route:?} (primary {})", route[0]);

        // warm every tenant: each cold miss factors on its primary and
        // replicates the factor to the ring replica
        std::thread::scope(|s| {
            for (id, a) in mats.iter().enumerate() {
                let policy = &policy;
                s.spawn(move || {
                    let b = Matrix::from_fn(a.rows(), 1, |i, _| 1.0 + i as f64);
                    let resp = solve_with_retry(h, &SolveRequest::new(id as u64, b), policy)
                        .expect("warmup solve failed");
                    println!(
                        "warm  tenant {id}: shard {:?} cache_hit={} residual={:.2e}",
                        resp.stats.shard.unwrap(),
                        resp.stats.cache_hit,
                        resp.residual
                    );
                });
            }
        });

        // kill the hot tenant's primary: traffic fails over to the warm
        // replica — no error, no re-factorization, no stale answer
        let victim = route[0];
        h.kill_shard(victim);
        println!("\nkilled shard {victim} ({} still live)", h.live_shards());
        std::thread::scope(|s| {
            for client in 0..4u64 {
                let policy = &policy;
                s.spawn(move || {
                    let mut rng = SplitMix64::new(900 + client);
                    for req in 0..8u64 {
                        let id = (client + req) % tenants as u64;
                        let b = Matrix::random(&mut rng, n, 1);
                        let resp = solve_with_retry(h, &SolveRequest::new(id, b), policy)
                            .expect("request lost during failover");
                        assert_ne!(resp.stats.shard, Some(victim), "dead shard answered");
                        assert!(resp.residual <= 1e-10);
                    }
                });
            }
        });
        println!("all tickets resolved with shard {victim} down");

        // revive: the shard rejoins empty, rebalance copies its primary
        // keyspace back from live donors, and it serves warm again
        h.revive_shard(victim);
        let resp = h
            .solve(SolveRequest::new(0, Matrix::from_fn(n, 1, |i, _| i as f64)))
            .expect("post-revive solve failed");
        println!(
            "\nrevived shard {victim}: tenant 0 served by shard {:?}, cache_hit={}",
            resp.stats.shard.unwrap(),
            resp.stats.cache_hit
        );
    });

    println!("\n{}", report.stats);
}
