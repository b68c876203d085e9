//! `relogic-cli`: reliability analysis of logic circuits from the shell.

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (text, code) = match relogic_cli::ParsedArgs::parse(args) {
        Ok(parsed) => match relogic_cli::run(&parsed) {
            Ok(text) => (text, 0),
            Err(e) => (format!("{e}\n"), e.exit_code()),
        },
        Err(e) => (format!("{e}\n{}\n", relogic_cli::USAGE), e.exit_code()),
    };
    let written = if code == 0 {
        let mut stdout = io::stdout().lock();
        stdout
            .write_all(text.as_bytes())
            .and_then(|()| stdout.flush())
    } else {
        io::stderr().lock().write_all(text.as_bytes())
    };
    match written {
        // A reader that stopped early (`| head`) has all it asked for.
        Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
            let _ = writeln!(io::stderr(), "i/o error: {e}");
            std::process::exit(3);
        }
        _ => std::process::exit(code),
    }
}
