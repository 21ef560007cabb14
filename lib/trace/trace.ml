type arg =
  | Int of int
  | Float of float
  | Bool of bool
  | String of string

type args = (string * arg) list

type phase =
  | Begin
  | End
  | Instant
  | Counter
  | Meta

type event = {
  name : string;
  cat : string;
  ph : phase;
  ts : float;
  tid : int;
  args : args;
}

(* All state is process-global and inherited across [fork]: the enabled
   flag and epoch propagate to workers for free, while the buffer is the
   one piece a worker must shed ([reset]) before collecting its own
   events. *)
let on = ref false
let detail_on = ref false
let epoch = ref 0.0

(* gettimeofday is the only clock forked children share with the parent;
   clamping makes it monotonic within each process, which is all the
   span arithmetic needs (cross-process skew cannot occur under fork:
   there is exactly one clock). *)
let last_ts = ref 0.0

let now_us () =
  let t = (Unix.gettimeofday () -. !epoch) *. 1e6 in
  let t = if t < !last_ts then !last_ts else t in
  last_ts := t;
  t

(* The buffer is a reversed list: emission is O(1), export reverses
   once. The cap bounds memory on runaway traces; overflow is counted
   and reported instead of silently truncating. *)
let buf : event list ref = ref []
let count = ref 0
let dropped_n = ref 0
let cap = 4_000_000

let enabled () = !on
let detail () = !on && !detail_on
let dropped () = !dropped_n

let enable ?(detail = false) () =
  if not !on then begin
    on := true;
    if !epoch = 0.0 then epoch := Unix.gettimeofday ()
  end;
  if detail then detail_on := true

let disable () = on := false

let reset () =
  buf := [];
  count := 0;
  dropped_n := 0

let push ev =
  if !count >= cap then incr dropped_n
  else begin
    buf := ev :: !buf;
    incr count
  end

let emit ?(cat = "sia") ?(args = []) ph name =
  push { name; cat; ph; ts = now_us (); tid = 0; args }

let begin_span ?cat ?args name = if !on then emit ?cat ?args Begin name
let end_span ?args name = if !on then emit ?args End name
let instant ?cat ?args name = if !on then emit ?cat ?args Instant name

let counter ?(tid = 0) name values =
  if !on then
    push
      {
        name;
        cat = "sia";
        ph = Counter;
        ts = now_us ();
        tid;
        args = List.map (fun (k, v) -> (k, Float v)) values;
      }

(* Per-request timing for serving-path callers (the [sia serve] daemon):
   the same monotonic-clamped clock the events use, packaged so request
   handlers don't open-code gettimeofday pairs. Works with tracing
   disabled — only deltas are meaningful then. *)
let timer () =
  let t0 = now_us () in
  fun () -> (now_us () -. t0) /. 1e6

let span ?cat ?args name f =
  if not !on then f ()
  else begin
    emit ?cat ?args Begin name;
    match f () with
    | r ->
      emit End name;
      r
    | exception e ->
      emit ~args:[ ("exn", String (Printexc.to_string e)) ] End name;
      raise e
  end

let set_lane_name tid name =
  if !on then
    push
      {
        name = "thread_name";
        cat = "__metadata";
        ph = Meta;
        ts = 0.0;
        tid;
        args = [ ("name", String name) ];
      }

let drain () =
  let evs = List.rev !buf in
  reset ();
  evs

let events () = List.rev !buf

let absorb ~lane evs =
  if !on then
    List.iter
      (fun ev -> push { ev with tid = (if ev.tid = 0 then lane else ev.tid) })
      evs

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let add_json_string b s =
  Buffer.add_char b '"';
  Buffer.add_string b (Json.escape s);
  Buffer.add_char b '"'

let add_json_float b f =
  (* JSON has no NaN/Infinity; clamp to 0, which cannot occur from the
     monotonic clock anyway. *)
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.3f" f)
  else Buffer.add_char b '0'

let add_arg b (k, v) =
  add_json_string b k;
  Buffer.add_char b ':';
  match v with
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> add_json_float b f
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | String s -> add_json_string b s

let ph_string = function
  | Begin -> "B"
  | End -> "E"
  | Instant -> "i"
  | Counter -> "C"
  | Meta -> "M"

let add_event b ev =
  Buffer.add_string b "{\"name\":";
  add_json_string b ev.name;
  Buffer.add_string b ",\"cat\":";
  add_json_string b ev.cat;
  Buffer.add_string b (Printf.sprintf ",\"ph\":\"%s\",\"ts\":" (ph_string ev.ph));
  add_json_float b ev.ts;
  Buffer.add_string b (Printf.sprintf ",\"pid\":1,\"tid\":%d" ev.tid);
  if ev.ph = Instant then Buffer.add_string b ",\"s\":\"t\"";
  (match ev.args with
   | [] -> ()
   | args ->
     Buffer.add_string b ",\"args\":{";
     List.iteri
       (fun i a ->
         if i > 0 then Buffer.add_char b ',';
         add_arg b a)
       args;
     Buffer.add_char b '}');
  Buffer.add_char b '}'

let to_chrome_string () =
  let evs = events () in
  let b = Buffer.create (65536 + (96 * List.length evs)) in
  Buffer.add_string b "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char b ',';
      add_event b ev)
    evs;
  Buffer.add_string b
    (Printf.sprintf "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d}}"
       !dropped_n);
  Buffer.contents b

let write_chrome oc = output_string oc (to_chrome_string ())

(* ------------------------------------------------------------------ *)
(* Metrics summary                                                     *)
(* ------------------------------------------------------------------ *)

type span_acc = {
  mutable n : int;
  mutable total : float; (* microseconds *)
  mutable max : float;
}

let metrics_string () =
  let spans : (string, span_acc) Hashtbl.t = Hashtbl.create 32 in
  let span_order = ref [] in
  let instants : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let instant_order = ref [] in
  let counters : (string, float) Hashtbl.t = Hashtbl.create 32 in
  let counter_order = ref [] in
  (* One open-span stack per lane; malformed nesting (an End with no
     matching Begin, or crossing names) is counted, not fatal. *)
  let stacks : (int, (string * float) list ref) Hashtbl.t = Hashtbl.create 8 in
  let malformed = ref 0 in
  let stack tid =
    match Hashtbl.find_opt stacks tid with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks tid s;
      s
  in
  List.iter
    (fun ev ->
      match ev.ph with
      | Begin ->
        let s = stack ev.tid in
        s := (ev.name, ev.ts) :: !s
      | End -> begin
        let s = stack ev.tid in
        match !s with
        | (name, t0) :: rest when name = ev.name ->
          s := rest;
          let acc =
            match Hashtbl.find_opt spans name with
            | Some a -> a
            | None ->
              let a = { n = 0; total = 0.0; max = 0.0 } in
              Hashtbl.add spans name a;
              span_order := name :: !span_order;
              a
          in
          let d = ev.ts -. t0 in
          acc.n <- acc.n + 1;
          acc.total <- acc.total +. d;
          if d > acc.max then acc.max <- d
        | _ -> incr malformed
      end
      | Instant ->
        (if not (Hashtbl.mem instants ev.name) then
           instant_order := ev.name :: !instant_order);
        Hashtbl.replace instants ev.name
          (1 + Option.value (Hashtbl.find_opt instants ev.name) ~default:0)
      | Counter ->
        List.iter
          (fun (k, v) ->
            match v with
            | Float f ->
              let key = ev.name ^ "." ^ k in
              (if not (Hashtbl.mem counters key) then
                 counter_order := key :: !counter_order);
              Hashtbl.replace counters key
                (f +. Option.value (Hashtbl.find_opt counters key) ~default:0.0)
            | Int _ | Bool _ | String _ -> ())
          ev.args
      | Meta -> ())
    (events ());
  let b = Buffer.create 4096 in
  Buffer.add_string b "-- trace metrics --\n";
  Buffer.add_string b
    (Printf.sprintf "%-24s %9s %14s %12s %12s\n" "span" "count" "total_ms"
       "mean_ms" "max_ms");
  List.iter
    (fun name ->
      let a = Hashtbl.find spans name in
      Buffer.add_string b
        (Printf.sprintf "%-24s %9d %14.3f %12.3f %12.3f\n" name a.n
           (a.total /. 1e3)
           (a.total /. 1e3 /. float_of_int (max 1 a.n))
           (a.max /. 1e3)))
    (List.sort compare !span_order);
  if !instant_order <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-24s %9s\n" "instant" "count");
    List.iter
      (fun name ->
        Buffer.add_string b
          (Printf.sprintf "%-24s %9d\n" name (Hashtbl.find instants name)))
      (List.sort compare !instant_order)
  end;
  if !counter_order <> [] then begin
    Buffer.add_string b (Printf.sprintf "%-24s %14s\n" "counter" "sum");
    List.iter
      (fun key ->
        Buffer.add_string b
          (Printf.sprintf "%-24s %14.0f\n" key (Hashtbl.find counters key)))
      (List.sort compare !counter_order)
  end;
  if !malformed > 0 then
    Buffer.add_string b (Printf.sprintf "malformed span events: %d\n" !malformed);
  if !dropped_n > 0 then
    Buffer.add_string b
      (Printf.sprintf "dropped events (buffer cap): %d\n" !dropped_n);
  Buffer.contents b
