//! The daemon load generator tolerates lost replies: it counts them and
//! runs on.

use hide_benchmark::workloads::apd::{make_clients, make_inputs, Bench, CLIENTS};

#[test]
fn port_messages_the_daemon_never_acks_count_as_lost_without_aborting() {
    let inputs = make_inputs(7, false).expect("inputs encode");
    let mut bench = Bench::start(&inputs, false).expect("daemon starts");
    // One more station that never associated: the daemon answers its
    // port messages with nothing.
    let mut clients = inputs.clients.clone();
    clients.extend(make_clients(7, CLIENTS, 1).expect("stranger encodes"));

    let stats = bench.closed_loop(&clients, 0.3).expect("the loop survives");
    assert!(stats.lost > 0, "unanswered messages must count as lost");
    assert!(stats.acked > 0, "associated clients keep being answered");
    assert_eq!(stats.acked + stats.lost, stats.sent);

    let (daemon, _, _) = bench.finish().expect("clean shutdown");
    assert_eq!(daemon.shards.unknown_clients, stats.lost);
    assert_eq!(daemon.parse_errors, 0);
}
