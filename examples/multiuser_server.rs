//! Multi-person, distributed access (paper §2.2).
//!
//! Starts the central Neptune server on a loopback socket and drives it
//! with several concurrent clients: joint authorship of one hyperdocument,
//! transaction isolation, and recovery of the server's graph after a
//! restart.
//!
//! Run with: `cargo run --example multiuser_server`

use neptune::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join(format!("neptune-server-ex-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ham, project, _) = Ham::create_graph(&dir, Protections::DEFAULT)?;
    let server = serve(ham, "127.0.0.1:0")?;
    println!("Neptune server listening on {}", server.addr());

    // ---- Joint authorship: four clients write simultaneously ---------------
    let addr = server.addr();
    let authors: Vec<_> = ["norm", "mayer", "amy", "raj"]
        .into_iter()
        .map(|author| {
            std::thread::spawn(move || -> Result<usize, String> {
                let mut c = Client::connect(addr).map_err(|e| e.to_string())?;
                let owner = c
                    .get_attribute_index(MAIN_CONTEXT, "responsible")
                    .map_err(|e| e.to_string())?;
                let mut created = 0;
                for i in 0..5 {
                    let (node, t) = c.add_node(MAIN_CONTEXT, true).map_err(|e| e.to_string())?;
                    c.modify_node(
                        MAIN_CONTEXT,
                        node,
                        t,
                        format!("section {i} drafted by {author}\n").into_bytes(),
                        vec![],
                    )
                    .map_err(|e| e.to_string())?;
                    c.set_node_attribute_value(MAIN_CONTEXT, node, owner, Value::str(author))
                        .map_err(|e| e.to_string())?;
                    created += 1;
                }
                Ok(created)
            })
        })
        .collect();
    let mut total = 0;
    for a in authors {
        total += a.join().expect("author thread")?;
    }
    println!("{total} sections written by 4 concurrent clients");

    // ---- Per-author queries -----------------------------------------------
    let mut reader = Client::connect(addr)?;
    for author in ["norm", "mayer", "amy", "raj"] {
        let sg = reader.get_graph_query(
            MAIN_CONTEXT,
            Time::CURRENT,
            format!("responsible = {author}"),
            "true",
            vec![],
            vec![],
        )?;
        println!("  {author}: {} section(s)", sg.nodes.len());
        assert_eq!(sg.nodes.len(), 5);
    }

    // ---- Transaction isolation ----------------------------------------------
    let mut txn_client = Client::connect(addr)?;
    let (shared, t) = txn_client.add_node(MAIN_CONTEXT, true)?;
    txn_client.modify_node(MAIN_CONTEXT, shared, t, b"agreed text\n".to_vec(), vec![])?;

    txn_client.begin_transaction()?;
    let t = txn_client.get_node_time_stamp(MAIN_CONTEXT, shared)?;
    txn_client.modify_node(
        MAIN_CONTEXT,
        shared,
        t,
        b"half-finished rewrite\n".to_vec(),
        vec![],
    )?;
    println!("\nclient A holds an open transaction with an uncommitted edit...");
    txn_client.abort_transaction()?;
    let seen = reader.open_node(MAIN_CONTEXT, shared, Time::CURRENT, vec![])?;
    println!(
        "...after abort, everyone still reads: {:?}",
        String::from_utf8_lossy(&seen.contents).trim_end()
    );

    // ---- Restart: the hyperdocument survives -----------------------------------
    reader.checkpoint()?;
    server.stop();
    println!("\nserver stopped; restarting from the graph directory...");
    let (ham, _) = Ham::open_graph(project, &Machine::local(), &dir)?;
    let server = serve(ham, "127.0.0.1:0")?;
    let mut c = Client::connect(server.addr())?;
    let sg = c.get_graph_query(
        MAIN_CONTEXT,
        Time::CURRENT,
        "exists(responsible)",
        "true",
        vec![],
        vec![],
    )?;
    println!(
        "after restart, {} authored sections are still there",
        sg.nodes.len()
    );
    assert_eq!(sg.nodes.len(), 20);
    server.stop();
    Ok(())
}
