module Ast = Sia_sql.Ast
module Parser = Sia_sql.Parser
module Printer = Sia_sql.Printer
module Schema = Sia_relalg.Schema
module Solver = Sia_smt.Solver
module Trace = Sia_trace.Trace
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

type state = {
  hot : Rewrite.Hot.t;
  cache : Cache.t;
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
   canonical template would have produced. *)
let reply_of_entry q (e : Cache.entry) elapsed =
  let outcome, pred, sql =
    match e.Cache.verdict with
    | Cache.Optimal p -> ("optimal", Printer.string_of_pred p, attach q p)
    | Cache.Valid p -> ("valid", Printer.string_of_pred p, attach q p)
    | Cache.Trivial -> ("trivial", "-", "-")
  in
  Protocol.Rewritten
    { Protocol.outcome; cached = true; pred; sql; wall_us = elapsed () *. 1e6 }

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
  | Synthesize.Optimal p -> Some (Cache.Optimal p)
  | Synthesize.Valid p -> Some (Cache.Valid p)
  | Synthesize.Trivial -> Some Cache.Trivial
  (* Failed covers both structural failures and solver resource limits
     (Unknown); neither is a definitive verdict, so neither is cached —
     the memo-cache invariant, one layer up. *)
  | Synthesize.Failed _ -> None

let handle_rewrite state target sql =
  let elapsed = Trace.timer () in
  match Parser.parse_query sql with
  | exception e ->
    Protocol.Error_reply ("parse error: " ^ Printexc.to_string e)
  | q -> (
    let cat = Rewrite.Hot.catalog state.hot in
    let pred = Rewrite.Hot.target_pred state.hot q in
    let target_cols =
      match target with
      | Protocol.Cols cols -> cols
      | Protocol.Table tbl ->
        List.filter_map
          (fun (c : Ast.column) ->
            match Schema.table_of_column cat q.Ast.from c with
            | t when t = tbl -> Some c.Ast.name
            | _ -> None
            | exception Not_found -> None)
          (Ast.pred_columns pred)
    in
    if target_cols = [] then
      Protocol.Rewritten
        {
          Protocol.outcome = "failed: no target-table columns in predicate";
          cached = false;
          pred = "-";
          sql = "-";
          wall_us = elapsed () *. 1e6;
        }
    else
      (* An un-keyable predicate (unsupported construct) bypasses the
         cache; synthesis will report the same condition as a Failed
         outcome, which is the structured answer the client expects. *)
      let key =
        match Cache.key cat ~from:q.Ast.from ~pred ~target_cols with
        | Ok k -> Some k
        | Error _ -> None
      in
      match Option.map (Cache.find state.cache) key with
      | Some (Some entry) -> reply_of_entry q entry elapsed
      | Some None | None -> (
        let r = Rewrite.Hot.rewrite state.hot q ~target:(`Cols target_cols) in
        (match (key, cachable_verdict r) with
         | Some k, Some verdict ->
           Cache.add state.cache k { Cache.verdict; tables = q.Ast.from }
         | _ -> ());
        reply_of_result r elapsed))

let stats_json state =
  let c = Cache.stats state.cache in
  let sv = Rewrite.Hot.solver_delta state.hot in
  Printf.sprintf
    "{\"serve\":\"stats\",\"requests\":%d,\"uptime_s\":%.3f,\"cache_hits\":%d,\"cache_misses\":%d,\"cache_insertions\":%d,\"cache_expirations\":%d,\"cache_invalidations\":%d,\"cache_entries\":%d,\"solver_queries\":%d,\"solver_cache_hits\":%d,\"solver_theory_rounds\":%d,\"solver_pivots\":%d}"
    state.requests (state.uptime ()) c.Cache.hits c.Cache.misses
    c.Cache.insertions c.Cache.expirations c.Cache.invalidations c.Cache.entries
    sv.Solver.queries sv.Solver.cache_hits sv.Solver.theory_rounds
    sv.Solver.pivots

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
