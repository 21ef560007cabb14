module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Solver = Sia_smt.Solver
module Trace = Sia_trace.Trace
module Json = Sia_trace.Json
open Sia_core

type config = {
  socket_path : string;
  cfg : Config.t;
  ttl : float;
  capacity : int;
  trace_file : string option;
}

let default_config =
  {
    socket_path = "sia.sock";
    cfg = Config.default;
    ttl = 300.;
    capacity = 4096;
    trace_file = None;
  }

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

(* Request memo: what a rewrite request derives from its text alone —
   the parsed query, the resolved target columns and the rewrite-cache
   key — keyed on the exact (target, SQL text) pair, plus the reply last
   rendered from a cache hit. A repeated template then skips the lexer,
   the encoder and the printer. Every keyed request still goes through
   [Cache.find], so TTL expiry, invalidation, solver resets, the capacity
   reset and the hit/miss counters behave as without the memo; a rendered
   reply is reused only while [Cache.find] returns the physically same
   entry it was rendered from, so it can never outlive its verdict. *)
type memo = {
  query : Ast.query;
  target_cols : string list;
  key : Cache.key option;
  mutable rendered : (Cache.entry * Protocol.reply) option;
}

type state = {
  hot : Rewrite.Hot.t;
  cache : Cache.t;
  memo : (Protocol.target * string, memo) Hashtbl.t;
  memo_capacity : int;
  mutable memo_bytes : int;
  mutable memo_hits : int;
  uptime : unit -> float;
  mutable requests : int;
}

let outcome_label (st : Synthesize.stats) =
  match st.Synthesize.outcome with
  | Synthesize.Optimal _ -> "optimal"
  | Synthesize.Valid _ -> "valid"
  | Synthesize.Trivial -> "trivial"
  | Synthesize.Failed msg -> "failed: " ^ msg

let attach q p1 =
  let where' =
    match q.Ast.where with None -> Some p1 | Some w -> Some (Ast.And (w, p1))
  in
  Printer.string_of_query { q with Ast.where = where' }

(* A cache hit replays the stored verdict against the incoming query:
   the synthesized predicate is re-attached to *this* request's WHERE
   clause, so the reply is exactly what a fresh synthesis of the same
   canonical template would have produced. A pushed verdict attaches
   nothing and reports the request's own target-table conjuncts, as the
   fresh rewrite did; the key's split bit guarantees they exist. *)
let render_entry state m (e : Cache.entry) =
  let q = m.query in
  let outcome, pred, sql =
    match e.Cache.verdict with
    | Cache.Optimal p -> ("optimal", Printer.string_of_pred p, attach q p)
    | Cache.Pushed ->
      let p =
        Rewrite.pushed_pred (Rewrite.Hot.catalog state.hot) ~from:q.Ast.from
          ~pred:(Rewrite.Hot.target_pred state.hot q)
          ~target_cols:m.target_cols
      in
      ("optimal", Printer.string_of_pred (Option.get p), "-")
    | Cache.Valid p -> ("valid", Printer.string_of_pred p, attach q p)
    | Cache.Trivial -> ("trivial", "-", "-")
  in
  { Protocol.outcome; cached = true; pred; sql; wall_us = 0. }

let reply_of_entry state m entry elapsed =
  let r =
    match m.rendered with
    | Some (e, r) when e == entry -> r
    | Some _ | None ->
      let r = render_entry state m entry in
      m.rendered <- Some (entry, r);
      r
  in
  Protocol.Rewritten { r with Protocol.wall_us = elapsed () *. 1e6 }

let reply_of_result (r : Rewrite.rewrite_result) elapsed =
  Protocol.Rewritten
    {
      Protocol.outcome = outcome_label r.Rewrite.stats;
      cached = false;
      pred =
        (match r.Rewrite.synthesized with
         | Some p -> Printer.string_of_pred p
         | None -> "-");
      sql =
        (match r.Rewrite.rewritten with
         | Some q -> Printer.string_of_query q
         | None -> "-");
      wall_us = elapsed () *. 1e6;
    }

let cachable_verdict (r : Rewrite.rewrite_result) =
  match r.Rewrite.stats.Synthesize.outcome with
  | Synthesize.Optimal _
    when Rewrite.not_attached r = Some Rewrite.Already_pushed ->
    Some Cache.Pushed
  | Synthesize.Optimal p -> Some (Cache.Optimal p)
  | Synthesize.Valid p -> Some (Cache.Valid p)
  | Synthesize.Trivial -> Some Cache.Trivial
  (* Failed covers both structural failures and solver resource limits
     (Unknown); neither is a definitive verdict, so neither is cached. *)
  | Synthesize.Failed _ -> None

let prepare state target q =
  let cat = Rewrite.Hot.catalog state.hot in
  let pred = Rewrite.Hot.target_pred state.hot q in
  let target_cols =
    match target with
    | Protocol.Cols cols -> cols
    | Protocol.Table tbl ->
      Rewrite.table_target_cols cat ~from:q.Ast.from ~pred ~target_table:tbl
  in
  (* An un-keyable predicate (unsupported construct) bypasses the
     cache; synthesis will report the same condition as a Failed
     outcome, which is the structured answer the client expects. *)
  let key =
    if target_cols = [] then None
    else
      match Cache.key cat ~from:q.Ast.from ~pred ~target_cols with
      | Ok k -> Some k
      | Error _ -> None
  in
  { query = q; target_cols; key; rendered = None }

(* What a client can make the memo hold is bounded three ways: it keeps
   only texts the rewrite cache can answer (a key), none longer than
   [memo_text_limit] bytes, and at most [memo_byte_budget] bytes of them
   in all, beside the [capacity] entry bound. Anything else — parse
   errors, unkeyable predicates, oversized texts — is answered from
   scratch, as without the memo. Served templates run a few hundred
   bytes. *)
let memo_text_limit = 4096

let memo_byte_budget = 1 lsl 20

(* Client bytes a memo entry pins: the SQL text and the target names,
   each name with a word for its list cell. *)
let request_bytes target sql =
  String.length sql
  +
  match target with
  | Protocol.Table tbl -> String.length tbl
  | Protocol.Cols cols ->
    List.fold_left (fun n c -> n + String.length c + 8) 0 cols

let find_memo state target sql =
  let bytes = request_bytes target sql in
  let found =
    if bytes > memo_text_limit then None
    else Hashtbl.find_opt state.memo (target, sql)
  in
  match found with
  | Some m ->
    state.memo_hits <- state.memo_hits + 1;
    Ok m
  | None -> (
    match Parser.parse_query sql with
    | exception e -> Error ("parse error: " ^ Printexc.to_string e)
    | q ->
      let m = prepare state target q in
      if Option.is_some m.key && bytes <= memo_text_limit then begin
        (* Full: wholesale reset, the rewrite cache's discipline. *)
        if
          Hashtbl.length state.memo >= state.memo_capacity
          || state.memo_bytes + bytes > memo_byte_budget
        then begin
          Hashtbl.reset state.memo;
          state.memo_bytes <- 0
        end;
        Hashtbl.replace state.memo (target, sql) m;
        state.memo_bytes <- state.memo_bytes + bytes
      end;
      Ok m)

let handle_rewrite state target sql =
  let elapsed = Trace.timer () in
  match find_memo state target sql with
  | Error msg -> Protocol.Error_reply msg
  | Ok m -> (
    if m.target_cols = [] then
      Protocol.Rewritten
        {
          Protocol.outcome = "failed: no target-table columns in predicate";
          cached = false;
          pred = "-";
          sql = "-";
          wall_us = elapsed () *. 1e6;
        }
    else
      match Option.map (Cache.find state.cache) m.key with
      | Some (Some entry) -> reply_of_entry state m entry elapsed
      | Some None | None ->
        let q = m.query in
        let r = Rewrite.Hot.rewrite state.hot q ~target:(`Cols m.target_cols) in
        (match (m.key, cachable_verdict r) with
         | Some k, Some verdict ->
           Cache.add state.cache k { Cache.verdict; tables = q.Ast.from }
         | _ -> ());
        reply_of_result r elapsed)

let stats_json state =
  let c = Cache.stats state.cache in
  let sv = Rewrite.Hot.solver_delta state.hot in
  let int n = Json.Num (float_of_int n) in
  Json.to_string
    (Json.Obj
       [
         ("serve", Json.Str "stats");
         ("requests", int state.requests);
         ("uptime_s", Json.Num (state.uptime ()));
         ("cache_hits", int c.Cache.hits);
         ("cache_misses", int c.Cache.misses);
         ("cache_insertions", int c.Cache.insertions);
         ("cache_expirations", int c.Cache.expirations);
         ("cache_invalidations", int c.Cache.invalidations);
         ("cache_entries", int c.Cache.entries);
         ("solver_queries", int sv.Solver.queries);
         ("solver_cache_hits", int sv.Solver.cache_hits);
         ("solver_theory_rounds", int sv.Solver.theory_rounds);
         ("solver_pivots", int sv.Solver.pivots);
         ("text_memo_hits", int state.memo_hits);
         ("text_memo_entries", int (Hashtbl.length state.memo));
       ])

(* Returns the response and whether the daemon should stop. *)
let handle state req =
  state.requests <- state.requests + 1;
  match req with
  | Protocol.Rewrite { target; sql } ->
    ( Trace.span "serve.request" ~args:[ ("kind", Trace.String "rewrite") ]
        (fun () ->
          match handle_rewrite state target sql with
          | r -> r
          | exception e ->
            Protocol.Error_reply ("internal error: " ^ Printexc.to_string e)),
      false )
  | Protocol.Stats -> (Protocol.Stats_reply (stats_json state), false)
  | Protocol.Invalidate tables ->
    let evicted = Cache.invalidate state.cache tables in
    (Protocol.Ok_reply (Printf.sprintf "evicted=%d" evicted), false)
  | Protocol.Ping -> (Protocol.Ok_reply "pong", false)
  | Protocol.Shutdown -> (Protocol.Ok_reply "bye", true)

(* ------------------------------------------------------------------ *)
(* Connection multiplexing                                             *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  mutable out : string;  (** queued unwritten response bytes *)
  mutable drop : bool;  (** close once [out] is flushed (corrupt stream) *)
  mutable alive : bool;
}

let close_conn c =
  if c.alive then begin
    c.alive <- false;
    try Unix.close c.fd with Unix.Unix_error _ -> ()
  end

(* Non-blocking flush of a connection's queued output. A peer that has
   stopped reading cannot wedge the daemon: we write what the socket
   accepts and return; a dead peer (EPIPE) just loses its response. *)
let try_write c =
  if c.alive && c.out <> "" then begin
    let b = Bytes.unsafe_of_string c.out in
    match Unix.write c.fd b 0 (Bytes.length b) with
    | n -> c.out <- String.sub c.out n (String.length c.out - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      close_conn c
  end;
  if c.alive && c.out = "" && c.drop then close_conn c

let queue_response c resp =
  let tag, payload = Protocol.encode_response resp in
  c.out <- c.out ^ Protocol.frame tag payload;
  try_write c

(* Drain every complete frame the decoder holds. Framing corruption is
   answered with a structured error and then the connection is dropped —
   there is no way to find the next frame boundary in a corrupt
   stream. *)
let rec drain_requests state c ~stop =
  if c.alive && not c.drop then
    match Protocol.next c.dec with
    | `Awaiting -> ()
    | `Frame (tag, payload) ->
      (match Protocol.decode_request tag payload with
       | Error msg -> queue_response c (Protocol.Error_reply msg)
       | Ok req ->
         let resp, quit = handle state req in
         queue_response c resp;
         if quit then stop := true);
      drain_requests state c ~stop
    | exception Protocol.Corrupt msg ->
      queue_response c (Protocol.Error_reply ("corrupt stream: " ^ msg));
      c.drop <- true

let handle_readable state c ~stop ~buf =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> close_conn c
  | n ->
    Protocol.feed c.dec buf 0 n;
    drain_requests state c ~stop
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn c

(* ------------------------------------------------------------------ *)
(* The daemon loop                                                     *)
(* ------------------------------------------------------------------ *)

let run ?(on_ready = fun () -> ()) config =
  let stop = ref false in
  let old_term =
    Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_int =
    Sys.signal Sys.sigint (Sys.Signal_handle (fun _ -> stop := true))
  in
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  if config.trace_file <> None then Trace.enable ();
  let state =
    {
      hot = Rewrite.Hot.create ~cfg:config.cfg Schema.tpch;
      cache = Cache.create ~ttl:config.ttl ~capacity:config.capacity ();
      memo = Hashtbl.create 256;
      memo_capacity = max 1 config.capacity;
      memo_bytes = 0;
      memo_hits = 0;
      uptime = Trace.timer ();
      requests = 0;
    }
  in
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let lfd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conns : conn list ref = ref [] in
  (* Shutdown must flush the trace and tear the socket down on every
     exit path — including SIGTERM breaking the select loop and an
     escaping exception — without [at_exit] (worker-hostile, sia-lint
     R4): Fun.protect is the whole story. *)
  Fun.protect
    ~finally:(fun () ->
      List.iter close_conn !conns;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigpipe old_pipe;
      match config.trace_file with
      | Some file ->
        let oc = open_out file in
        Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
            Trace.write_chrome oc)
      | None -> ())
  @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen lfd 64;
  Unix.set_nonblock lfd;
  on_ready ();
  let buf = Bytes.create 65536 in
  while not !stop do
    !conns |> List.iter try_write;
    conns := List.filter (fun c -> c.alive) !conns;
    let reads = lfd :: List.map (fun c -> c.fd) !conns in
    let writes =
      List.filter_map
        (fun c -> if c.out <> "" then Some c.fd else None)
        !conns
    in
    match Unix.select reads writes [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
      List.iter
        (fun fd ->
          if fd = lfd then begin
            match Unix.accept lfd with
            | cfd, _ ->
              Unix.set_nonblock cfd;
              conns :=
                {
                  fd = cfd;
                  dec = Protocol.decoder ();
                  out = "";
                  drop = false;
                  alive = true;
                }
                :: !conns
            | exception
                Unix.Unix_error
                  ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
              ()
          end
          else
            match List.find_opt (fun c -> c.fd = fd) !conns with
            | Some c -> handle_readable state c ~stop ~buf
            | None -> ())
        ready_r;
      List.iter
        (fun fd ->
          match List.find_opt (fun c -> c.fd = fd) !conns with
          | Some c -> try_write c
          | None -> ())
        ready_w
  done;
  (* Orderly stop: give queued replies (the Shutdown ack among them) a
     brief, bounded flush — a peer that stopped reading loses its
     response rather than holding the daemon open. *)
  let deadline = 50 in
  let attempts = ref 0 in
  while
    !attempts < deadline && List.exists (fun c -> c.alive && c.out <> "") !conns
  do
    incr attempts;
    let writes =
      List.filter_map
        (fun c -> if c.alive && c.out <> "" then Some c.fd else None)
        !conns
    in
    (match Unix.select [] writes [] 0.1 with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | _, ready_w, _ ->
       List.iter
         (fun fd ->
           match List.find_opt (fun c -> c.fd = fd) !conns with
           | Some c -> try_write c
           | None -> ())
         ready_w);
    !conns |> List.iter try_write
  done
