(** Structured tracing and metrics for the synthesis pipeline.

    A process-global, dependency-free event buffer with hierarchical
    spans, instant events, and counter samples, exportable as Chrome
    trace-event JSON ([chrome://tracing] / Perfetto) or as a per-run
    metrics summary table. The CEGIS loop, the SMT solver, and the worker
    pool emit into it; the CLI ([--trace FILE]) and the bench harness
    write it out.

    {2 Overhead contract}

    Tracing is off by default and every emitting function begins with a
    single [bool] check — a disabled pipeline pays one branch (plus, for
    {!span}, one closure call) per instrumentation site and allocates
    nothing. Instrumentation sites whose {e argument construction} is
    itself costly guard with {!enabled} before building the argument
    list. See DESIGN.md §16 for the full overhead budget.

    {2 Cross-process reassembly}

    Forked pool workers inherit the enabled flag and the trace epoch, so
    their timestamps share the parent's timeline (the epoch is an
    absolute wall-clock anchor; within a process timestamps are clamped
    monotonic). A worker {!reset}s the inherited buffer, collects its own
    events, and ships them back inside the pool's existing result frames;
    the parent {!absorb}s them onto a per-worker lane ([tid]), so child
    spans reassemble under the parent timeline as separate tracks of one
    merged trace. *)

(** One argument value attached to an event. *)
type arg =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

type args = (string * arg) list
(** Named event arguments, rendered into the Chrome ["args"] object. *)

(** Chrome trace-event phase of an event. *)
type phase =
  | Begin  (** span open (["ph":"B"]) *)
  | End  (** span close (["ph":"E"]) *)
  | Instant  (** point event (["ph":"i"]) *)
  | Counter  (** counter sample (["ph":"C"]) *)
  | Meta  (** metadata, e.g. lane names (["ph":"M"]) *)

type event = {
  name : string;
  cat : string;  (** event category (Chrome ["cat"]); default ["sia"] *)
  ph : phase;
  ts : float;  (** microseconds since the trace epoch, monotonic per process *)
  tid : int;  (** lane: [0] = this process; workers get [1..jobs] on absorb *)
  args : args;
}
(** A trace event. Plain data, so worker events survive [Marshal]. *)

val enabled : unit -> bool
(** Whether tracing is on. Emitting functions check this themselves;
    call it only to guard costly argument construction. *)

val enable : unit -> unit
(** Turn tracing on. Idempotent: enabling an already-enabled trace keeps
    the buffer and the epoch (so late enablers join the same timeline).
    The first enable anchors the epoch. *)

val disable : unit -> unit
(** Turn tracing off. The buffer is kept (it can still be exported). *)

val reset : unit -> unit
(** Clear the event buffer, keeping the enabled flag and the epoch.
    Pool workers call this right after [fork] to shed the parent's
    inherited events. *)

val begin_span : ?cat:string -> ?args:args -> string -> unit
(** Open a span on this process's lane. Must be closed by a later
    {!end_span} with the same name (spans on one lane nest strictly). *)

val end_span : ?args:args -> string -> unit
(** Close the innermost open span. The name must match the matching
    {!begin_span} (checked by the metrics pass and the test suite, not at
    emission time). *)

val span : ?cat:string -> ?args:args -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()] inside a [name] span. Exception-safe: an
    escaping exception closes the span (with an ["exn"] argument) and is
    re-raised. When tracing is disabled this is exactly [f ()]. *)

val instant : ?cat:string -> ?args:args -> string -> unit
(** Emit a point event (cache hit, rebuild, worker completion, ...). *)

val timer : unit -> unit -> float
(** [timer ()] starts a per-request timer on the trace clock and returns
    a function giving the elapsed seconds since the start. Monotonic
    (same clamped clock as the events — never negative, fork-safe), and
    usable with tracing disabled, where only the delta is meaningful.
    Serving-path callers use this instead of open-coding
    [Unix.gettimeofday] pairs. *)

val counter : ?tid:int -> string -> (string * float) list -> unit
(** [counter name values] emits a counter sample. [?tid] places it on a
    specific lane (used for per-worker attribution from the parent). *)

val set_lane_name : int -> string -> unit
(** Name a lane in the exported trace (Chrome [thread_name] metadata). *)

val drain : unit -> event list
(** Return all buffered events in emission order and clear the buffer.
    Workers drain into their final result frame. *)

val absorb : lane:int -> event list -> unit
(** Append another process's drained events, re-homing their lane-0
    events onto [lane]. No-op when tracing is disabled. *)

val events : unit -> event list
(** Snapshot of the buffer in emission order (buffer unchanged). *)

val dropped : unit -> int
(** Events discarded because the buffer cap was hit (reported rather
    than silently truncated; the cap bounds a runaway trace's memory). *)

val to_chrome_string : unit -> string
(** The buffered events as a Chrome trace-event JSON object
    ([{"traceEvents": [...], ...}]). *)

val write_chrome : out_channel -> unit
(** Write {!to_chrome_string} to a channel. *)

val metrics_string : unit -> string
(** Aggregate the buffer into a human-readable summary: per span name the
    count, total/mean/max duration; per instant name the count; per
    counter series the sum — the [--metrics] table of the CLI and bench. *)
