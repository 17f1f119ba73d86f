//! Regenerates every table and figure (`cohort_bench::report::ARTEFACTS`),
//! writing markdown into `results/` or the directory given as argument.

#![forbid(unsafe_code)]

use cohort_bench::report::ARTEFACTS;
use cohort_bench::sweep::Sweep;
use std::fs;

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| "results".into());
    fs::create_dir_all(&out_dir).expect("create results dir");
    let mut sweep = Sweep::new();
    sweep.verbose = true;
    for (file, title, render) in ARTEFACTS {
        let path = format!("{out_dir}/{file}");
        fs::write(&path, format!("# {title}\n\n{}", render(&mut sweep))).expect("write result");
        println!("wrote {path}");
    }
    println!("done.");
}
