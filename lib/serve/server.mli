(** The [sia serve] daemon: a long-running rewrite-as-a-service process.

    One process listens on a Unix-domain socket, speaks the
    {!Protocol} frames, and keeps the whole solver hot state — the
    sample model pool — resident between requests. A miss calls
    {!Sia_core.Rewrite.rewrite_for_columns} under the daemon's one
    catalog and config; a {!Cache} of finished rewrites in front lets
    repeated query templates skip solver work entirely, and a hit
    replays its verdict through {!Sia_core.Rewrite.attach}. A request memo keyed on the exact (target, SQL text) pair
    additionally skips parsing, keying and — while the cache answers
    with the same entry — reply printing for a repeated text; it
    changes no answer and no cache counter.

    Connections are multiplexed with [select]: a half-written frame on
    one connection never delays another client, and requests are
    executed one at a time in arrival order (the solver state is
    process-global, so serialized execution is what makes served answers
    byte-identical to batch mode). Malformed input gets a structured
    {!Protocol.Error_reply}; unrecoverable framing corruption gets the
    error and then the connection is dropped. [SIGTERM]/[SIGINT] stop
    the accept loop; shutdown runs under [Fun.protect], flushing the
    optional trace file even on an exceptional exit. *)

type config = {
  socket_path : string;  (** Unix-domain socket to listen on *)
  cfg : Sia_core.Config.t;  (** synthesis configuration for all requests *)
  ttl : float;  (** rewrite-cache TTL seconds; [0.] = no expiry *)
  capacity : int;  (** rewrite-cache and request-memo entry bound *)
  trace_file : string option;
      (** write a Chrome trace of the daemon's lifetime here on
          shutdown *)
}

val default_config : config
(** [socket_path = "sia.sock"], the ambient {!Sia_core.Config.default},
    [ttl = 300.], [capacity = 4096], no trace file. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Run the daemon until [SIGTERM]/[SIGINT] or a [Shutdown] request.
    Binds the socket (replacing a stale file), then calls [on_ready]
    once accepting — test and bench harnesses use it to signal the
    parent process. Returns after all connections are closed and the
    socket file is unlinked. *)
