//! Command implementations.

use neptune_document::trail::Trail;
use neptune_document::{annotate, inspect, view_node, GraphBrowser};
use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{ContextId, LinkPt, Time};
use neptune_ham::{Predicate, Value};
use neptune_relational::{build_xref, nodes_relation};

use crate::shell::{Result, Shell, ShellError};

const HELP: &str = "\
Neptune shell — commands:
  graph / ls [node-pred [link-pred]]   graph browser view
  info                                 graph statistics
  goto <id>                            select a node (starts/extends the trail)
  cat [time]                           current node's contents (at a version)
  read [time] [--batch N]              time N reads of the current node
  view                                 node browser (contents with link icons)
  follow <k>                           follow the k-th inline link
  back                                 return from a diversion
  trail                                show the trail so far
  new [file]                           create a node (archive unless 'file')
  edit <text>                          append a line to the current node
  link <to-id> [offset]                link current node -> target
  annotate <text>                      attach an annotation at offset 0
  history                              version browser for the current node
  diff <t1> <t2>                       node differences between two versions
  attrs                                attribute browser
  set <attr> <value>                   set an attribute on the current node
  get <attr>                           read an attribute of the current node
  query <node-predicate>               getGraphQuery
  demons                               demon browser
  contexts                             list version threads
  fork                                 fork a private world from this context
  switch <ctx>                         operate in another context
  merge <ctx> [child|parent|fail]      merge a world back (conflict policy)
  sql <attr[,attr...]>                 nodes relation with those attributes
  refs <symbol>                        cross-references in code & docs
  begin / commit / abort               explicit transaction control
  checkpoint                           fold the log into a snapshot
  check                                verify store integrity (fsck + lints)
  stats                                metrics registry (cachestats is an alias)
  trace [--json] [id]                  flight recorder: recent & slow/error traces
  obs set slow-op-ms <n|off>           adjust the slow-trace retention threshold
  obs on|off                           observability kill-switch
  help                                 this text
  quit                                 leave
";

pub(crate) fn dispatch(shell: &mut Shell, command: &str, rest: &str) -> Result<String> {
    match command {
        "help" | "?" => Ok(HELP.to_string()),
        "quit" | "exit" => Err(ShellError::Quit),
        "graph" | "ls" => cmd_graph(shell, rest),
        "info" => cmd_info(shell),
        "goto" => cmd_goto(shell, rest),
        "cat" => cmd_cat(shell, rest),
        "read" => cmd_read(shell, rest),
        "view" => cmd_view(shell),
        "follow" => cmd_follow(shell, rest),
        "back" => cmd_back(shell),
        "trail" => cmd_trail(shell),
        "new" => cmd_new(shell, rest),
        "edit" => cmd_edit(shell, rest),
        "link" => cmd_link(shell, rest),
        "annotate" => cmd_annotate(shell, rest),
        "history" => cmd_history(shell),
        "diff" => cmd_diff(shell, rest),
        "attrs" => {
            let ctx = shell.context;
            Ok(inspect::attribute_browser(&shell.ham, ctx, Time::CURRENT)?)
        }
        "set" => cmd_set(shell, rest),
        "get" => cmd_get(shell, rest),
        "query" => cmd_query(shell, rest),
        "demons" => {
            let ctx = shell.context;
            let node = shell.current;
            Ok(inspect::demon_browser(
                &shell.ham,
                ctx,
                node,
                Time::CURRENT,
            )?)
        }
        "contexts" => {
            let list: Vec<String> = shell
                .ham
                .contexts()
                .iter()
                .map(|c| format!("ctx{}", c.0))
                .collect();
            Ok(format!(
                "contexts: {} (in ctx{})\n",
                list.join(", "),
                shell.context.0
            ))
        }
        "fork" => {
            let child = shell.ham.create_context(shell.context)?;
            Ok(format!(
                "forked ctx{} from ctx{}\n",
                child.0, shell.context.0
            ))
        }
        "switch" => cmd_switch(shell, rest),
        "merge" => cmd_merge(shell, rest),
        "sql" => cmd_sql(shell, rest),
        "refs" => cmd_refs(shell, rest),
        "begin" => {
            let id = shell.ham.begin_transaction()?;
            Ok(format!("transaction {id} open\n"))
        }
        "commit" => {
            shell.ham.commit_transaction()?;
            Ok("committed\n".to_string())
        }
        "abort" => {
            shell.ham.abort_transaction()?;
            Ok("aborted — all changes rolled back\n".to_string())
        }
        "checkpoint" => {
            shell.ham.checkpoint()?;
            Ok("checkpointed\n".to_string())
        }
        "check" => cmd_check(shell),
        "stats" | "cachestats" => cmd_stats(),
        "trace" => cmd_trace(rest),
        "obs" => cmd_obs(rest),
        other => Err(ShellError::Usage(format!(
            "unknown command '{other}' — try 'help'"
        ))),
    }
}

fn cmd_graph(shell: &mut Shell, rest: &str) -> Result<String> {
    let mut parts = rest.splitn(2, "::");
    let node_pred = parts
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .unwrap_or("true");
    let link_pred = parts
        .next()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .unwrap_or("true");
    let browser = GraphBrowser::with_predicates(node_pred, link_pred);
    Ok(browser.render(&shell.ham, shell.context, Time::CURRENT)?)
}

fn cmd_info(shell: &mut Shell) -> Result<String> {
    let graph = shell.ham.graph(shell.context)?;
    Ok(format!(
        "project {} — context ctx{}: {} live nodes, {} live links, clock at {}, {} attribute names\n",
        shell.ham.project_id().0,
        shell.context.0,
        graph.live_node_count(),
        graph.live_link_count(),
        graph.now().0,
        graph.attr_table.len(),
    ))
}

fn cmd_goto(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.parse_node(rest)?;
    shell
        .ham
        .graph(shell.context)?
        .live_node(node, Time::CURRENT)?;
    shell.current = Some(node);
    if shell.trail.is_none() {
        shell.trail = Some(Trail::start(
            &mut shell.ham,
            shell.context,
            "session",
            node,
        )?);
    }
    cmd_view(shell)
}

fn cmd_cat(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let time = if rest.is_empty() {
        Time::CURRENT
    } else {
        shell.parse_time(rest)?
    };
    let opened = shell.ham.open_node(shell.context, node, time, &[])?;
    let mut out = String::from_utf8_lossy(&opened.contents).into_owned();
    if !out.ends_with('\n') {
        out.push('\n');
    }
    Ok(out)
}

/// Bench-adjacent: drive the same read path the server's `openNode` RPC
/// uses, `N` times, and report throughput — every read of a version after
/// the first is an exact anchor hit, a refcount bump on the shared contents
/// buffer, which this makes visible interactively.
fn cmd_read(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let mut time = Time::CURRENT;
    let mut batch = 1usize;
    let mut words = rest.split_whitespace();
    while let Some(word) = words.next() {
        if word == "--batch" {
            batch = words
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or_else(|| ShellError::Usage("read [time] [--batch N]".to_string()))?;
        } else {
            time = shell.parse_time(word)?;
        }
    }
    let before = neptune_storage::archive::anchor_stats();
    let start = std::time::Instant::now();
    let mut bytes = 0u64;
    for _ in 0..batch {
        let opened = shell.ham.open_node(shell.context, node, time, &[])?;
        bytes += opened.contents.len() as u64;
    }
    let elapsed = start.elapsed();
    let after = neptune_storage::archive::anchor_stats();
    let per_read = elapsed.as_nanos() as u64 / batch.max(1) as u64;
    let rate = if elapsed.as_secs_f64() > 0.0 {
        batch as f64 / elapsed.as_secs_f64()
    } else {
        f64::INFINITY
    };
    Ok(format!(
        "read node {} x{}: {} bytes total, {} ns/read, {:.0} reads/sec\n\
         version cache: +{} hits, +{} misses\n",
        node.0,
        batch,
        bytes,
        per_read,
        rate,
        after.hits - before.hits,
        after.misses - before.misses,
    ))
}

fn cmd_view(shell: &mut Shell) -> Result<String> {
    let node = shell.current_node()?;
    let ctx = shell.context;
    let view = view_node(&mut shell.ham, ctx, node, Time::CURRENT)?;
    let mut out = format!("node {} (current version @ {}):\n", node.0, {
        shell.ham.get_node_time_stamp(ctx, node)?.0
    });
    for line in view.text.lines() {
        out.push_str("  ");
        out.push_str(line);
        out.push('\n');
    }
    if !view.links.is_empty() {
        out.push_str("links:\n");
        for (i, l) in view.links.iter().enumerate() {
            out.push_str(&format!(
                "  [{i}] @{} -> node {} ({})\n",
                l.offset, l.target.0, l.icon
            ));
        }
    }
    Ok(out)
}

fn cmd_follow(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let index: usize = rest
        .trim()
        .parse()
        .map_err(|_| ShellError::Usage("follow <link-number>".to_string()))?;
    let ctx = shell.context;
    let view = view_node(&mut shell.ham, ctx, node, Time::CURRENT)?;
    let link = view
        .links
        .get(index)
        .ok_or_else(|| ShellError::Usage(format!("node has {} links", view.links.len())))?;
    let link_id = link.link;
    if let Some(trail) = &mut shell.trail {
        trail.follow(&mut shell.ham, ctx, link_id)?;
    }
    let (target, _) = shell.ham.get_to_node(ctx, link_id, Time::CURRENT)?;
    shell.current = Some(target);
    cmd_view(shell)
}

fn cmd_back(shell: &mut Shell) -> Result<String> {
    let ctx = shell.context;
    let Some(trail) = &mut shell.trail else {
        return Ok("no trail yet\n".to_string());
    };
    match trail.back(&mut shell.ham, ctx)? {
        Some(node) => {
            shell.current = Some(node);
            cmd_view(shell)
        }
        None => Ok("at the start of the trail\n".to_string()),
    }
}

fn cmd_trail(shell: &mut Shell) -> Result<String> {
    match &shell.trail {
        None => Ok("no trail yet — 'goto' a node to start one\n".to_string()),
        Some(trail) => {
            let mut out = format!(
                "trail '{}' (stored in node {}):\n",
                trail.name, trail.node.0
            );
            for (i, step) in trail.steps().iter().enumerate() {
                match step.link {
                    Some(l) => out.push_str(&format!(
                        "  {i}: via link {} -> node {}\n",
                        l.0, step.node.0
                    )),
                    None => out.push_str(&format!("  {i}: at node {}\n", step.node.0)),
                }
            }
            Ok(out)
        }
    }
}

fn cmd_new(shell: &mut Shell, rest: &str) -> Result<String> {
    let keep_history = rest.trim() != "file";
    let (node, t) = shell.ham.add_node(shell.context, keep_history)?;
    shell.current = Some(node);
    Ok(format!(
        "created {} node {} at time {}\n",
        if keep_history { "archive" } else { "file" },
        node.0,
        t.0
    ))
}

fn cmd_edit(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let opened = shell
        .ham
        .open_node(shell.context, node, Time::CURRENT, &[])?;
    let mut contents = opened.contents.to_vec();
    contents.extend_from_slice(rest.as_bytes());
    contents.push(b'\n');
    let t = shell.ham.modify_node(
        shell.context,
        node,
        opened.current_time,
        contents,
        &opened.link_pts,
    )?;
    Ok(format!("checked in version {} of node {}\n", t.0, node.0))
}

fn cmd_link(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let mut parts = rest.split_whitespace();
    let to = shell.parse_node(parts.next().unwrap_or(""))?;
    let offset: u64 = parts.next().map(|p| p.parse().unwrap_or(0)).unwrap_or(0);
    let (link, _) = shell.ham.add_link(
        shell.context,
        LinkPt::current(node, offset),
        LinkPt::current(to, 0),
    )?;
    Ok(format!(
        "link {} : node {} @{} -> node {}\n",
        link.0, node.0, offset, to.0
    ))
}

fn cmd_annotate(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    if rest.is_empty() {
        return Err(ShellError::Usage("annotate <text>".to_string()));
    }
    let ctx = shell.context;
    let a = annotate(&mut shell.ham, ctx, node, 0, &format!("{rest}\n"))?;
    Ok(format!(
        "annotation node {} linked via link {}\n",
        a.node.0, a.link.0
    ))
}

fn cmd_history(shell: &mut Shell) -> Result<String> {
    let node = shell.current_node()?;
    Ok(inspect::version_browser(&shell.ham, shell.context, node)?)
}

fn cmd_diff(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let mut parts = rest.split_whitespace();
    let t1 = shell.parse_time(parts.next().unwrap_or(""))?;
    let t2 = shell.parse_time(parts.next().unwrap_or("now"))?;
    Ok(neptune_document::diffview::render(
        &shell.ham,
        shell.context,
        node,
        t1,
        t2,
    )?)
}

fn cmd_set(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let (attr, value) = rest
        .split_once(char::is_whitespace)
        .ok_or_else(|| ShellError::Usage("set <attr> <value>".to_string()))?;
    let idx = shell.ham.get_attribute_index(shell.context, attr)?;
    let value = Value::parse_literal(value.trim());
    shell
        .ham
        .set_node_attribute_value(shell.context, node, idx, value.clone())?;
    Ok(format!("node {}: {attr} = {value}\n", node.0))
}

fn cmd_get(shell: &mut Shell, rest: &str) -> Result<String> {
    let node = shell.current_node()?;
    let graph = shell.ham.graph(shell.context)?;
    let Some(idx) = graph.attr_table.lookup(rest.trim()) else {
        return Ok(format!("{} is not set\n", rest.trim()));
    };
    match shell
        .ham
        .get_node_attribute_value(shell.context, node, idx, Time::CURRENT)
    {
        Ok(v) => Ok(format!("{} = {v}\n", rest.trim())),
        Err(_) => Ok(format!("{} is not set\n", rest.trim())),
    }
}

fn cmd_query(shell: &mut Shell, rest: &str) -> Result<String> {
    let pred = Predicate::parse(rest)
        .map_err(|message| ShellError::Ham(neptune_ham::HamError::BadPredicate { message }))?;
    let icon = shell.ham.graph(shell.context)?.attr_table.lookup("icon");
    let attrs: Vec<_> = icon.into_iter().collect();
    let sg = shell.ham.get_graph_query(
        shell.context,
        Time::CURRENT,
        &pred,
        &Predicate::True,
        &attrs,
        &[],
    )?;
    let mut out = format!("{} node(s), {} link(s):\n", sg.nodes.len(), sg.links.len());
    for (id, values) in &sg.nodes {
        let label = values
            .first()
            .and_then(|v| v.clone())
            .map(|v| format!(" ({v})"))
            .unwrap_or_default();
        out.push_str(&format!("  node {}{label}\n", id.0));
    }
    Ok(out)
}

fn cmd_switch(shell: &mut Shell, rest: &str) -> Result<String> {
    let id: u64 = rest
        .trim()
        .strip_prefix("ctx")
        .unwrap_or(rest.trim())
        .parse()
        .map_err(|_| ShellError::Usage("switch <ctx-id>".to_string()))?;
    let ctx = ContextId(id);
    shell.ham.graph(ctx)?; // validate
    shell.context = ctx;
    shell.current = None;
    shell.trail = None;
    Ok(format!("now in ctx{id}\n"))
}

fn cmd_merge(shell: &mut Shell, rest: &str) -> Result<String> {
    let mut parts = rest.split_whitespace();
    let raw = parts.next().unwrap_or("");
    let id: u64 = raw
        .strip_prefix("ctx")
        .unwrap_or(raw)
        .parse()
        .map_err(|_| ShellError::Usage("merge <ctx-id> [child|parent|fail]".to_string()))?;
    let policy = match parts.next().unwrap_or("fail") {
        "child" => ConflictPolicy::PreferChild,
        "parent" => ConflictPolicy::PreferParent,
        _ => ConflictPolicy::Fail,
    };
    let report = shell.ham.merge_context(ContextId(id), policy)?;
    Ok(format!(
        "merged ctx{id}: {} modified, {} added, {} deleted, {} attr change(s), {} conflict(s)\n",
        report.nodes_modified.len(),
        report.nodes_added.len(),
        report.nodes_deleted.len(),
        report.attrs_changed,
        report.conflicts.len()
    ))
}

fn cmd_sql(shell: &mut Shell, rest: &str) -> Result<String> {
    let attrs: Vec<&str> = rest
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if attrs.is_empty() {
        return Err(ShellError::Usage("sql <attr[,attr...]>".to_string()));
    }
    let rel = nodes_relation(&shell.ham, shell.context, Time::CURRENT, &attrs)
        .map_err(|e| ShellError::Usage(e.to_string()))?;
    Ok(rel.render())
}

fn cmd_check(shell: &mut Shell) -> Result<String> {
    let mut findings = neptune_check::verify_open_ham(&shell.ham);
    let project = neptune_case::CaseProject::new(shell.context);
    findings.extend(neptune_check::lint_project(&shell.ham, &project));
    if findings.is_empty() {
        return Ok("store is clean: 0 findings\n".to_string());
    }
    let mut out = String::new();
    for f in &findings {
        out.push_str(&f.to_string());
        out.push('\n');
    }
    out.push_str(&format!("{} finding(s)\n", findings.len()));
    Ok(out)
}

fn cmd_stats() -> Result<String> {
    let s = neptune_storage::archive::anchor_stats();
    let mut out = format!(
        "version cache: {} hits, {} misses, {} entries, {} bytes\n",
        s.hits, s.misses, s.entries, s.bytes
    );
    if neptune_obs::enabled() {
        let registry = neptune_obs::registry();
        out.push_str(&format!(
            "server wire traffic: {} bytes in, {} bytes out\n",
            registry.counter("neptune_server_bytes_in_total").get(),
            registry.counter("neptune_server_bytes_out_total").get(),
        ));
        let count = |name: &str| registry.counter(name).get();
        out.push_str(&format!(
            "checkpoints: {} blobs written, {} left alone, {} bytes; {} skipped as idle, {} failed\n",
            count("neptune_ham_checkpoint_blobs_written_total"),
            count("neptune_ham_checkpoint_blobs_skipped_total"),
            count("neptune_ham_checkpoint_bytes_total"),
            count("neptune_ham_checkpoint_skipped_total"),
            count("neptune_ham_checkpoint_failures_total"),
        ));
        out.push('\n');
        out.push_str(&neptune_obs::render::render_human(registry));
    } else {
        out.push_str("(metrics registry disabled via NEPTUNE_OBS_DISABLED)\n");
    }
    Ok(out)
}

fn parse_trace_id(text: &str) -> Result<u64> {
    let trimmed = text.trim();
    let hex = trimmed.strip_prefix('t').unwrap_or(trimmed);
    u64::from_str_radix(hex, 16)
        .map_err(|_| ShellError::Usage(format!("'{text}' is not a trace id (t<hex>)")))
}

fn cmd_trace(rest: &str) -> Result<String> {
    let mut json = false;
    let mut id = None;
    for word in rest.split_whitespace() {
        if word == "--json" {
            json = true;
        } else {
            id = Some(parse_trace_id(word)?);
        }
    }
    if let Some(id) = id {
        let Some(t) = neptune_obs::recorder().find(id) else {
            return Ok(format!("trace t{id:016x} is not in the flight recorder\n"));
        };
        return Ok(if json {
            let mut out = neptune_obs::render_trace_json(&t);
            out.push('\n');
            out
        } else {
            neptune_obs::render_trace(&t)
        });
    }
    if json {
        let mut out = neptune_obs::dump_json();
        out.push('\n');
        return Ok(out);
    }
    let traces = neptune_obs::recorder().dump();
    if traces.is_empty() {
        return Ok("flight recorder is empty\n".to_string());
    }
    let mut out = format!(
        "flight recorder: {} trace(s) — 'trace <id>' for the span tree\n",
        traces.len()
    );
    for t in &traces {
        let flags = match (t.error, t.dropped_spans > 0) {
            (true, true) => " [error, truncated]",
            (true, false) => " [error]",
            (false, true) => " [truncated]",
            (false, false) => "",
        };
        out.push_str(&format!(
            "  t{:016x}  {:>9.3}ms  {:>3} span(s)  {} {}{}\n",
            t.trace_id,
            t.total_ns as f64 / 1e6,
            t.spans.len(),
            t.root_name,
            t.root_detail,
            flags,
        ));
    }
    Ok(out)
}

fn cmd_obs(rest: &str) -> Result<String> {
    const USAGE: &str = "obs set slow-op-ms <n|off> | obs on|off";
    let mut words = rest.split_whitespace();
    match (words.next(), words.next(), words.next()) {
        (Some("on"), None, _) => {
            neptune_obs::registry().set_enabled(true);
            Ok("observability enabled\n".to_string())
        }
        (Some("off"), None, _) => {
            neptune_obs::registry().set_enabled(false);
            Ok("observability disabled (kill-switch)\n".to_string())
        }
        (Some("set"), Some("slow-op-ms"), Some("off")) => {
            neptune_obs::set_slow_op_threshold(None);
            Ok("slow-op retention disabled — only errors stay notable\n".to_string())
        }
        (Some("set"), Some("slow-op-ms"), Some(n)) => {
            let ms: u64 = n
                .parse()
                .map_err(|_| ShellError::Usage(USAGE.to_string()))?;
            neptune_obs::set_slow_op_threshold(Some(std::time::Duration::from_millis(ms)));
            Ok(format!("slow-op threshold set to {ms}ms\n"))
        }
        _ => Err(ShellError::Usage(USAGE.to_string())),
    }
}

fn cmd_refs(shell: &mut Shell, rest: &str) -> Result<String> {
    if rest.trim().is_empty() {
        return Err(ShellError::Usage("refs <symbol>".to_string()));
    }
    let ctx = shell.context;
    let xref = build_xref(&mut shell.ham, ctx, Time::CURRENT)
        .map_err(|e| ShellError::Usage(e.to_string()))?;
    let hits = xref
        .references_to(rest.trim())
        .map_err(|e| ShellError::Usage(e.to_string()))?;
    Ok(hits.render())
}
