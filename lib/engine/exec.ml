module Ast = Sia_sql.Ast
module Plan = Sia_relalg.Plan

exception Unsupported of string

(* Late materialization (DESIGN.md §22): a cursor is an array of parts,
   each a base table read through an index vector ([None]: every row, in
   order). Position [k] of the cursor is the row built from
   [rows.(k)] of every part. Filters and joins only compute index
   vectors; the root gathers each output column once. *)
type part = { tbl : Table.t; rows : int array option }
type cursor = { name : string; parts : part array; n : int }

let scan tbl = { name = tbl.Table.name; parts = [| { tbl; rows = None } |]; n = tbl.Table.nrows }

let resolver c name =
  let rec find i =
    if i = Array.length c.parts then raise Not_found
    else
      let p = c.parts.(i) in
      match Eval.table_resolver ?index:p.rows p.tbl name with
      | s -> s
      | exception Not_found -> find (i + 1)
  in
  find 0

(* The part read through cursor positions [sel]. *)
let compose p (sel : int array) =
  match p.rows with
  | None -> { p with rows = Some sel }
  | Some (ix : int array) ->
    let out = Array.make (Array.length sel) 0 in
    for k = 0 to Array.length sel - 1 do
      out.(k) <- ix.(sel.(k))
    done;
    { p with rows = Some out }

let filter_cursor c pred =
  let sel = Eval.select (resolver c) pred c.n in
  { c with parts = Array.map (fun p -> compose p sel) c.parts; n = Array.length sel }

(* A growable int buffer for join output. *)
type buf = { mutable data : int array; mutable len : int }

let push b x =
  if b.len = Array.length b.data then begin
    let bigger = Array.make (2 * b.len) 0 in
    Array.blit b.data 0 bigger 0 b.len;
    b.data <- bigger
  end;
  b.data.(b.len) <- x;
  b.len <- b.len + 1

(* The hash join's working arrays, kept between joins and grown on
   demand: a join then allocates only its output index vectors, not a
   hash table and two probe-sized buffers on fresh pages as well. *)
let join_keys = ref [||]
let join_head = ref [||]
let join_next = ref [||]
let join_bi = { data = [||]; len = 0 }
let join_pi = { data = [||]; len = 0 }

let reserve r n =
  if Array.length !r < n then r := Array.make n 0;
  !r

let reset b n =
  if Array.length b.data < n then b.data <- Array.make n 0;
  b.len <- 0

(* Fibonacci hashing into [2^bits] slots. *)
let hash_bits k bits = (k * 0x1E3779B97F4A7C15) lsr (Sys.int_size - bits)

let join_cursors lc rc ~left_key ~right_key =
  (* Build on the smaller side, probe with the larger. *)
  let build, probe, build_key, probe_key, build_is_left =
    if lc.n <= rc.n then (lc, rc, left_key, right_key, true)
    else (rc, lc, right_key, left_key, false)
  in
  let key c name = Eval.compile_expr (resolver c) (Ast.col name) in
  let bk = key build build_key and pk = key probe probe_key in
  (* SQL's NULL = x is UNKNOWN: a NULL key never matches. *)
  let not_null (v : Eval.value) = match v.null with None -> fun _ -> true | Some f -> fun r -> not (f r) in
  let bget = bk.get and pget = pk.get and bok = not_null bk and pok = not_null pk in
  (* Open addressing over distinct keys; [head.(s)] is the newest build
     position with the slot's key and [next] chains to older ones, so a
     probe sees matches newest-first. *)
  let bits =
    let rec go b = if 1 lsl b >= 2 * build.n then b else go (b + 1) in
    go 4
  in
  let mask = (1 lsl bits) - 1 in
  (* [keys.(s)] is read only once [head.(s)] is set, and [next.(i)] only
     for an inserted [i], so only [head] needs clearing. *)
  let keys = reserve join_keys (mask + 1) and head = reserve join_head (mask + 1) in
  Array.fill head 0 (mask + 1) (-1);
  let next = reserve join_next build.n in
  let rec slot k s = if head.(s) < 0 || keys.(s) = k then s else slot k ((s + 1) land mask) in
  for i = 0 to build.n - 1 do
    if bok i then begin
      let k = bget i in
      let s = slot k (hash_bits k bits) in
      keys.(s) <- k;
      next.(i) <- head.(s);
      head.(s) <- i
    end
  done;
  let bi = join_bi and pi = join_pi in
  reset bi (Stdlib.max 16 probe.n);
  reset pi (Stdlib.max 16 probe.n);
  for j = 0 to probe.n - 1 do
    if pok j then begin
      let k = pget j in
      let i = ref head.(slot k (hash_bits k bits)) in
      while !i >= 0 do
        push bi !i;
        push pi j;
        i := next.(!i)
      done
    end
  done;
  let side c b =
    let sel = Array.sub b.data 0 b.len in
    Array.map (fun p -> compose p sel) c.parts
  in
  let parts =
    if build_is_left then Array.append (side build bi) (side probe pi)
    else Array.append (side probe pi) (side build bi)
  in
  { name = lc.name ^ "_" ^ rc.name; parts; n = bi.len }

let materialize c =
  match c.parts with
  | [| { tbl; rows = None } |] -> tbl
  | parts ->
    let tables =
      Array.map (fun p -> match p.rows with None -> p.tbl | Some r -> Table.gather p.tbl r) parts
    in
    let cat f = Array.concat (Array.to_list (Array.map f tables)) in
    {
      Table.name = c.name;
      col_names = cat (fun t -> t.Table.col_names);
      cols = cat (fun t -> t.Table.cols);
      nrows = c.n;
      null_masks = cat (fun t -> t.Table.null_masks);
      dicts = cat (fun t -> t.Table.dicts);
    }

let hash_join ~left ~right ~left_key ~right_key =
  materialize (join_cursors (scan left) (scan right) ~left_key ~right_key)

let rec run_cursor ~tables plan =
  match plan with
  | Plan.Scan t -> begin
    match List.assoc_opt t tables with
    | Some tbl -> scan tbl
    | None -> raise (Unsupported ("unknown table " ^ t))
  end
  | Plan.Filter (p, sub) -> filter_cursor (run_cursor ~tables sub) p
  | Plan.Project (_, sub) ->
    (* The engine is columnar; projection is free and kept only for plan
       shape fidelity. *)
    run_cursor ~tables sub
  | Plan.Join (info, l, r) ->
    let lc = run_cursor ~tables l and rc = run_cursor ~tables r in
    let joined =
      join_cursors lc rc ~left_key:info.Plan.left_key.Ast.name
        ~right_key:info.Plan.right_key.Ast.name
    in
    (match info.Plan.residual with
     | Some p -> filter_cursor joined p
     | None -> joined)

let run ~tables plan = materialize (run_cursor ~tables plan)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)
