//! The GEMM blocking and microkernel are fixed: no environment variable
//! and no file changes them. Before the first kernel call this binary sets
//! the three variables that once steered them — a blocking, a kernel name
//! and a tuning file holding a valid record for this host — and checks
//! that [`GemmConfig::auto`] still runs [`GemmBlocking::default`] and
//! [`default_isa_kernel`], and that an `lu_parallel` factor has the bits a
//! process started without those variables computes.
//!
//! The kernel selection is process-wide, so the binary holds one test
//! (plus the ignored helper it runs in a clean child process).

use std::process::Command;

use denselin::{default_isa_kernel, lu_parallel, GemmBlocking, GemmConfig, Matrix, SplitMix64};

const KNOBS: [&str; 3] = [
    "DENSELIN_GEMM_BLOCK",
    "DENSELIN_GEMM_KERNEL",
    "DENSELIN_TUNING_FILE",
];

/// FNV-1a over the bits of an `lu_parallel` factor of a fixed 96 x 96
/// matrix and its permutation.
fn factor_hash() -> u64 {
    let a = Matrix::random(&mut SplitMix64::new(31), 96, 96);
    let f = lu_parallel(&a, 32).unwrap();
    let words = f.lu.as_slice().iter().map(|x| x.to_bits());
    let words = words.chain(f.perm.iter().map(|&p| p as u64));
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Run by [`environment_changes_neither_the_choice_nor_the_bits`] in a
/// child process with the three variables removed.
#[test]
#[ignore = "helper: prints the factor hash of a clean process"]
fn clean_process_factor_hash() {
    println!("factor-hash {:016x}", factor_hash());
}

/// The key the removed per-host tuning file was indexed by: ISA tier,
/// core count and the cpu0 L1d/L2/L3 sizes from sysfs.
fn host_key() -> String {
    #[cfg(target_arch = "x86_64")]
    let isa = if std::arch::is_x86_feature_detected!("avx512f") {
        "avx512"
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        "avx2"
    } else {
        "x86_64"
    };
    #[cfg(not(target_arch = "x86_64"))]
    let isa = std::env::consts::ARCH;
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    let cache = |level: u32| -> u64 {
        for idx in 0..10 {
            let base = format!("/sys/devices/system/cpu/cpu0/cache/index{idx}");
            let read = |f: &str| std::fs::read_to_string(format!("{base}/{f}"));
            let Ok(lv) = read("level") else { break };
            let ty = read("type").unwrap_or_default();
            if lv.trim().parse() != Ok(level) || !["Data", "Unified"].contains(&ty.trim()) {
                continue;
            }
            let size = read("size").unwrap_or_default();
            let size = size.trim();
            let parsed = if let Some(k) = size.strip_suffix('K') {
                k.parse::<u64>().map(|v| v << 10)
            } else if let Some(m) = size.strip_suffix('M') {
                m.parse::<u64>().map(|v| v << 20)
            } else {
                size.parse()
            };
            if let Ok(bytes) = parsed {
                return bytes;
            }
        }
        0
    };
    format!(
        "{isa}-c{cores}-l1d{}-l2{}-l3{}",
        cache(1),
        cache(2),
        cache(3)
    )
}

#[test]
fn environment_changes_neither_the_choice_nor_the_bits() {
    let dir = std::env::temp_dir().join(format!("denselin-env-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("tuning.toml");
    let record = format!(
        "version = 1\n\n[[gemm]]\nhost = \"{}\"\nkernel = \"portable_6x8\"\n\
         mc = 96\nkc = 192\nnc = 384\nthreads = 1\ngflops = 1.0\n",
        host_key()
    );
    std::fs::write(&file, record).unwrap();
    std::env::set_var("DENSELIN_GEMM_BLOCK", "7,3,5");
    std::env::set_var("DENSELIN_GEMM_KERNEL", "portable_4x4");
    std::env::set_var("DENSELIN_TUNING_FILE", &file);

    let cfg = GemmConfig::auto();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(cfg.blocking, GemmBlocking::default());
    assert_eq!(cfg.kernel.name, default_isa_kernel().name);
    let here = format!("factor-hash {:016x}", factor_hash());

    let mut child = Command::new(std::env::current_exe().unwrap());
    child.args([
        "--ignored",
        "--exact",
        "clean_process_factor_hash",
        "--nocapture",
    ]);
    for knob in KNOBS {
        child.env_remove(knob);
    }
    let out = child.output().expect("run the clean child process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "child failed:\n{stdout}");
    let clean = stdout
        .lines()
        .find(|l| l.starts_with("factor-hash "))
        .expect("the child prints its factor hash");
    assert_eq!(here, clean);
}
