use simurgh_bench::FsKind;
use simurgh_fsapi::Breakdown;
use simurgh_workloads::minikv::{KvOptions, MiniKv};
use simurgh_workloads::ycsb::{self, Workload, YcsbConfig};
use std::time::Instant;

fn main() {
    let _ = simurgh_pmem::SpinClock::global();
    let cfg = YcsbConfig { records: 2000, ops: 2000, threads: 1, value_size: 1024 };
    for kind in [FsKind::Simurgh, FsKind::SplitFs] {
        let fs = kind.make(1 << 30);
        let kv = MiniKv::open(fs.as_ref(), "/db", KvOptions::default()).unwrap();
        let t = Instant::now();
        ycsb::load(&kv, cfg).unwrap();
        println!("{:<10} LoadA {:>8.1} ms  tables={}", kind.label(), t.elapsed().as_secs_f64()*1e3, kv.table_count());
        let t = Instant::now();
        ycsb::run(&kv, Workload::A, cfg);
        println!("{:<10} RunA  {:>8.1} ms  tables={}", kind.label(), t.elapsed().as_secs_f64()*1e3, kv.table_count());
        let t = Instant::now();
        ycsb::run(&kv, Workload::F, cfg);
        println!("{:<10} RunF  {:>8.1} ms  tables={}", kind.label(), t.elapsed().as_secs_f64()*1e3, kv.table_count());
    }
    // Breakdown for simurgh RunF
    let fs = simurgh_bench::FsKind::make_simurgh(1 << 30);
    let kv = MiniKv::open(&fs, "/db", KvOptions::default()).unwrap();
    ycsb::load(&kv, cfg).unwrap();
    ycsb::run(&kv, Workload::A, cfg);
    let (fs0, ops0, data0) = (fs.obs().fs_ns(), fs.obs().op_count(), fs.data_stats());
    let t = Instant::now();
    ycsb::run(&kv, Workload::F, cfg);
    let wall = t.elapsed().as_nanos() as u64;
    let copy = fs.data_stats().since(&data0).copy_ns;
    let b = Breakdown::new(wall, fs.obs().fs_ns() - fs0, copy);
    println!("simurgh RunF breakdown: wall={:.1}ms fs={:.1}ms copy={:.1}ms ops={}",
        wall as f64/1e6, b.fs_ns as f64/1e6, b.copy_ns as f64/1e6, fs.obs().op_count() - ops0);
}
