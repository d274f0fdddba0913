//! One typed channel plane: how envelopes move between virtual processors.
//!
//! A plane is one unbounded crossbeam channel per processor.  Every
//! [`Endpoint`] holds a sender to every *peer* (its own slot is empty —
//! self-sends never leave the [`crate::Communicator`]) and its own
//! receiver.  Payloads move by value and are never serialized or cloned.
//!
//! The executor stack relies on these properties of the plane (each is a
//! test below):
//!
//! * **Per-pair FIFO** — envelopes from a fixed sender to a fixed receiver
//!   arrive in sending order (the communicator's mailbox re-ordering relies
//!   on it).
//! * **Sends never wait on receivers** — the channels are unbounded, so an
//!   all-to-all exchange can send everything before receiving anything.
//! * **Drain** — after [`Endpoint::drain`] returns, no envelope sent to it
//!   *before* the call will ever be received.  Only sound while all peers
//!   are parked (the pool's recovery round guarantees that).
//! * **Fence** — an envelope's [`Envelope::generation`] arrives unmodified;
//!   dropping stale generations is the communicator's job.

use std::time::Duration;

use crossbeam_channel::{unbounded, Receiver, RecvTimeoutError, SendError, Sender};

/// A message in flight between two virtual processors.
///
/// The `generation` stamp is the **fence** of the resident pool: outgoing
/// envelopes carry the sending job's generation, and receives drop
/// envelopes from earlier jobs (sent but legally never received there)
/// instead of delivering them into the wrong job.
#[derive(Debug)]
pub(crate) struct Envelope<T> {
    /// Sending virtual processor.
    pub(crate) from: usize,
    /// Message tag (matched by [`crate::Communicator::recv`]).
    pub(crate) tag: u64,
    /// Job generation of the sender; always `0` on the one-shot machine,
    /// whose fabric lives for exactly one job.
    pub(crate) generation: u64,
    /// The payload, moved to the peer.
    pub(crate) payload: Vec<T>,
}

/// One virtual processor's end of a plane.
pub(crate) struct Endpoint<T> {
    senders: Vec<Option<Sender<Envelope<T>>>>,
    receiver: Receiver<Envelope<T>>,
}

impl<T> Endpoint<T> {
    /// Delivers `envelope` to peer `to`; `Err` when the peer's endpoint no
    /// longer exists.
    pub(crate) fn send(
        &self,
        to: usize,
        envelope: Envelope<T>,
    ) -> Result<(), SendError<Envelope<T>>> {
        self.senders[to]
            .as_ref()
            .expect("self-sends never reach the plane")
            .send(envelope)
    }

    /// Receives the next envelope addressed to this endpoint, waiting at
    /// most `timeout`.  [`RecvTimeoutError::Disconnected`] means every peer
    /// is gone and nothing will ever arrive again.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Envelope<T>, RecvTimeoutError> {
        self.receiver.recv_timeout(timeout)
    }

    /// Discards everything in flight towards this endpoint.
    pub(crate) fn drain(&self) {
        while self.receiver.try_recv().is_ok() {}
    }
}

/// Opens one plane of `procs` endpoints, indexed by processor id.  Not
/// holding a self-sender is what lets an endpoint's channel disconnect once
/// every peer is gone.
pub(crate) fn open_plane<T>(procs: usize) -> Vec<Endpoint<T>> {
    let (senders, receivers): (Vec<_>, Vec<_>) = (0..procs).map(|_| unbounded()).unzip();
    receivers
        .into_iter()
        .enumerate()
        .map(|(id, receiver)| Endpoint {
            senders: senders
                .iter()
                .enumerate()
                .map(|(to, tx)| (to != id).then(|| tx.clone()))
                .collect(),
            receiver,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use std::time::Instant;

    use super::*;

    /// Generous wait for envelopes that must arrive.
    const ARRIVAL: Duration = Duration::from_secs(10);

    fn envelope<T>(from: usize, tag: u64, generation: u64, payload: Vec<T>) -> Envelope<T> {
        Envelope {
            from,
            tag,
            generation,
            payload,
        }
    }

    #[test]
    fn delivery_keeps_headers_intact_on_both_planes() {
        let data = open_plane::<String>(3);
        let words = open_plane::<u64>(3);
        data[0]
            .send(2, envelope(0, 11, 5, vec!["a".to_string(), "b".into()]))
            .unwrap();
        words[1].send(2, envelope(1, 22, 7, vec![9])).unwrap();

        let env = data[2].recv_timeout(ARRIVAL).unwrap();
        assert_eq!(
            (env.from, env.tag, env.generation, env.payload),
            (0, 11, 5, vec!["a".to_string(), "b".into()])
        );
        let env = words[2].recv_timeout(ARRIVAL).unwrap();
        assert_eq!(
            (env.from, env.tag, env.generation, env.payload),
            (1, 22, 7, vec![9]),
            "the fence stamp must survive the plane"
        );
    }

    #[test]
    fn per_pair_envelopes_arrive_in_sending_order() {
        let plane = open_plane::<u64>(2);
        for tag in 0..64 {
            plane[0].send(1, envelope(0, tag, 0, vec![tag])).unwrap();
        }
        for tag in 0..64 {
            assert_eq!(plane[1].recv_timeout(ARRIVAL).unwrap().tag, tag);
        }
    }

    #[test]
    fn idle_receive_times_out_promptly() {
        let plane = open_plane::<u64>(2);
        let started = Instant::now();
        assert_eq!(
            plane[0]
                .recv_timeout(Duration::from_millis(25))
                .unwrap_err(),
            RecvTimeoutError::Timeout,
            "an idle receive must time out, not block or close"
        );
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn drain_discards_only_prior_envelopes() {
        let plane = open_plane::<u64>(2);
        plane[0].send(1, envelope(0, 1, 0, vec![1])).unwrap();
        plane[1].drain();
        assert_eq!(
            plane[1]
                .recv_timeout(Duration::from_millis(50))
                .unwrap_err(),
            RecvTimeoutError::Timeout,
            "a drained envelope must never be received"
        );
        plane[0].send(1, envelope(0, 2, 0, vec![2])).unwrap();
        assert_eq!(
            plane[1].recv_timeout(ARRIVAL).unwrap().tag,
            2,
            "envelopes sent after a drain are unaffected"
        );
    }

    #[test]
    fn closed_plane_reports_closed() {
        let mut plane = open_plane::<u64>(2);
        let keep = plane.remove(1);
        drop(plane); // endpoint 0 (and its senders) gone
        assert_eq!(
            keep.recv_timeout(Duration::from_millis(5)).unwrap_err(),
            RecvTimeoutError::Disconnected
        );
    }
}
