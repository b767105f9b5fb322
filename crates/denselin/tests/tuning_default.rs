//! The fallbacks with nothing configured: with no `DENSELIN_GEMM_BLOCK` and
//! no tuning record the blocking is `GemmBlocking::default()` (no timing
//! probe, so no GEMM bit depends on timing noise), and a malformed
//! `DENSELIN_THREADS` is ignored in favour of the available parallelism —
//! no other variable is consulted for the thread count.
//!
//! One test per binary: the selections are cached process-wide.

use denselin::gemm::{auto_threads, GemmBlocking};
use denselin::tune::{persisted, TuneSource};

#[test]
fn nothing_configured_resolves_to_the_defaults() {
    let missing = std::env::temp_dir()
        .join(format!("denselin-tune-missing-{}", std::process::id()))
        .join("tuning.toml");
    std::env::set_var("DENSELIN_TUNING_FILE", &missing);
    std::env::remove_var("DENSELIN_GEMM_BLOCK");
    assert!(persisted().is_none(), "a missing file yields no record");
    assert_eq!(
        GemmBlocking::tuned_with_source(),
        (GemmBlocking::default(), TuneSource::Heuristic)
    );

    std::env::set_var("DENSELIN_THREADS", "bogus");
    std::env::set_var("DENSELIN_GEMM_THREADS", "1");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    assert_eq!(auto_threads(), cores);
}
