//! The `velodrome` command-line tool.

use std::io::Write;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Buffered but not locked: `check-batch` writes from its worker threads.
    let mut out = std::io::BufWriter::new(std::io::stdout());
    if let Err(e) = velodrome_cli::execute_to(&args, &mut out) {
        // Keep what was written; if stdout itself failed, it fails again.
        let _ = out.flush();
        eprintln!("error: {e}");
        std::process::exit(e.exit_code());
    }
}
