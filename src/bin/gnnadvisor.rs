//! The `gnnadvisor` command-line tool — see `gnnadvisor help`.

#![deny(unsafe_code)]

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match gnnadvisor_repro::cli::dispatch(&args) {
        Ok(report) => print!("{report}"),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(1);
        }
    }
}
