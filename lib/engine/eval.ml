module Ast = Sia_sql.Ast
module Date = Sia_sql.Date
module Strdict = Sia_sql.Strdict

exception Unsupported of string

type tv = Tv_true | Tv_false | Tv_null

type source = {
  data : int array;
  nulls : bool array option;
  dict : Strdict.t option;
  index : int array option;
}

type resolver = string -> source

(* Resolution ignores the qualifier: joined tables keep distinct column
   names (TPC-H prefixes), and single tables are unambiguous. *)
let table_resolver ?index (t : Table.t) name =
  let i = Table.col_index t name in
  { data = t.Table.cols.(i); nulls = t.Table.null_masks.(i); dict = t.Table.dicts.(i); index }

type value = { get : int -> int; null : (int -> bool) option }

(* A predicate as the pair of row tests (T p, F p) of DESIGN.md §21.3:
   "p is TRUE here" and "p is FALSE here"; UNKNOWN is neither. *)
type cond = { t : int -> bool; f : int -> bool }

let always _ = true
let never _ = false

let column_value s =
  let d = s.data in
  match (s.index, s.nulls) with
  | None, None -> { get = (fun r -> d.(r)); null = None }
  | None, Some m -> { get = (fun r -> d.(r)); null = Some (fun r -> m.(r)) }
  | Some ix, None -> { get = (fun r -> d.(ix.(r))); null = None }
  | Some ix, Some m ->
    { get = (fun r -> d.(ix.(r))); null = Some (fun r -> m.(ix.(r))) }

let either_null a b =
  match (a, b) with
  | None, n | n, None -> n
  | Some na, Some nb -> Some (fun r -> na r || nb r)

let int_const = function
  | Ast.Cint n | Ast.Cinterval n -> n
  | Ast.Cdate d -> Date.to_days d
  | Ast.Cfloat _ -> raise (Unsupported "float constant in engine predicate")
  | Ast.Cstring _ -> raise (Unsupported "string literal outside a string comparison")

(* T and F of an atom that is UNKNOWN exactly where [null] holds and
   otherwise decided by [holds], which is only called on non-NULL rows. *)
let atom null holds =
  match null with
  | None -> { t = holds; f = (fun r -> not (holds r)) }
  | Some isnull ->
    { t = (fun r -> (not (isnull r)) && holds r); f = (fun r -> (not (isnull r)) && not (holds r)) }

let string_column resolve (c : Ast.column) =
  let s = resolve c.Ast.name in
  match s.dict with
  | None -> raise (Unsupported ("string comparison on non-string column " ^ c.Ast.name))
  | Some d -> (d, column_value s)

(* A string atom is decided per dictionary code: the verdict table is
   built by comparing the decoded values as strings, independent of the
   SMT rank encoding (DESIGN.md §21.4), so rows only index it. *)
let string_atom resolve c verdict =
  let d, v = string_column resolve c in
  let table = Array.init (Strdict.size d) (fun code -> verdict (Strdict.value d code)) in
  let get = v.get in
  atom v.null (fun r -> table.(get r))

let like_matcher pat =
  if String.contains pat '_' then raise (Unsupported "LIKE pattern with '_' wildcard");
  match String.index_opt pat '%' with
  | None -> fun s -> String.equal s pat
  | Some i when i = String.length pat - 1 ->
    let p = String.sub pat 0 i in
    fun s -> String.starts_with ~prefix:p s
  | Some _ -> raise (Unsupported "LIKE pattern with interior '%'")

let sign_holds op c =
  match op with
  | Ast.Lt -> c < 0
  | Ast.Le -> c <= 0
  | Ast.Gt -> c > 0
  | Ast.Ge -> c >= 0
  | Ast.Eq -> c = 0
  | Ast.Ne -> c <> 0

let cmp_holds op (ga : int -> int) (gb : int -> int) =
  match op with
  | Ast.Lt -> fun r -> ga r < gb r
  | Ast.Le -> fun r -> ga r <= gb r
  | Ast.Gt -> fun r -> ga r > gb r
  | Ast.Ge -> fun r -> ga r >= gb r
  | Ast.Eq -> fun r -> ga r = gb r
  | Ast.Ne -> fun r -> ga r <> gb r

let cmp_const_holds op (ga : int -> int) (n : int) =
  match op with
  | Ast.Lt -> fun r -> ga r < n
  | Ast.Le -> fun r -> ga r <= n
  | Ast.Gt -> fun r -> ga r > n
  | Ast.Ge -> fun r -> ga r >= n
  | Ast.Eq -> fun r -> ga r = n
  | Ast.Ne -> fun r -> ga r <> n

(* NULL propagates through arithmetic; a CASE takes the first arm whose
   condition is TRUE (UNKNOWN does not select, §21.3), the mandatory ELSE
   otherwise, and is NULL exactly when the selected arm is. A [get] is
   only meaningful where [null] is false, and callers test [null] first,
   so a quotient is computed only on rows whose operands are non-NULL. *)
let rec compile_expr resolve e =
  match e with
  | Ast.Col c -> column_value (resolve c.Ast.name)
  | Ast.Const k ->
    let n = int_const k in
    { get = (fun _ -> n); null = None }
  | Ast.Binop (op, a, b) ->
    let va = compile_expr resolve a and vb = compile_expr resolve b in
    let ga = va.get and gb = vb.get in
    let get =
      match (op, b) with
      | Ast.Add, Ast.Const k ->
        let n = int_const k in
        fun r -> ga r + n
      | Ast.Sub, Ast.Const k ->
        let n = int_const k in
        fun r -> ga r - n
      | Ast.Add, _ -> fun r -> ga r + gb r
      | Ast.Sub, _ -> fun r -> ga r - gb r
      | Ast.Mul, _ -> fun r -> ga r * gb r
      | Ast.Div, _ -> fun r -> ga r / gb r
    in
    { get; null = either_null va.null vb.null }
  | Ast.Case (arms, els) ->
    let arms =
      Array.of_list (List.map (fun (p, v) -> ((compile resolve p).t, compile_expr resolve v)) arms)
    in
    let velse = compile_expr resolve els in
    let n = Array.length arms in
    let rec pick i r =
      if i = n then velse
      else
        let holds, v = arms.(i) in
        if holds r then v else pick (i + 1) r
    in
    let nullable =
      Option.is_some velse.null || Array.exists (fun (_, v) -> Option.is_some v.null) arms
    in
    {
      get = (fun r -> (pick 0 r).get r);
      null =
        (if nullable then
           Some (fun r -> match (pick 0 r).null with None -> false | Some isnull -> isnull r)
         else None);
    }

(* Kleene strong connectives through their (T, F) equations (§21.3):
   T(a AND b) = Ta ∧ Tb, F(a AND b) = Fa ∨ Fb, dually for OR, and NOT
   swaps T and F. *)
and compile resolve p =
  match p with
  | Ast.Cmp (op, Ast.Col c, Ast.Const (Ast.Cstring s)) when Option.is_some (resolve c.Ast.name).dict
    ->
    string_atom resolve c (fun v -> sign_holds op (String.compare v s))
  | Ast.Cmp (op, Ast.Const (Ast.Cstring s), Ast.Col c) when Option.is_some (resolve c.Ast.name).dict
    ->
    compile resolve (Ast.Cmp (Ast.cmp_flip op, Ast.Col c, Ast.Const (Ast.Cstring s)))
  | Ast.Cmp (op, a, b) ->
    let va = compile_expr resolve a and vb = compile_expr resolve b in
    let holds =
      match (a, b) with
      | _, Ast.Const k -> cmp_const_holds op va.get (int_const k)
      | Ast.Const k, _ -> cmp_const_holds (Ast.cmp_flip op) vb.get (int_const k)
      | _ -> cmp_holds op va.get vb.get
    in
    atom (either_null va.null vb.null) holds
  | Ast.In (e, cs) ->
    compile resolve (Ast.disj (List.map (fun c -> Ast.Cmp (Ast.Eq, e, Ast.Const c)) cs))
  | Ast.Between (e, lo, hi) ->
    compile resolve (Ast.And (Ast.Cmp (Ast.Ge, e, lo), Ast.Cmp (Ast.Le, e, hi)))
  | Ast.Like (Ast.Col c, pat) -> string_atom resolve c (like_matcher pat)
  | Ast.Like _ -> raise (Unsupported "LIKE operand must be a string column")
  | Ast.IsNull e -> (
    (* the one two-valued predicate: never UNKNOWN *)
    match (compile_expr resolve e).null with
    | None -> { t = never; f = always }
    | Some isnull -> { t = isnull; f = (fun r -> not (isnull r)) })
  | Ast.And (a, b) ->
    let ca = compile resolve a and cb = compile resolve b in
    { t = (fun r -> ca.t r && cb.t r); f = (fun r -> ca.f r || cb.f r) }
  | Ast.Or (a, b) ->
    let ca = compile resolve a and cb = compile resolve b in
    { t = (fun r -> ca.t r || cb.t r); f = (fun r -> ca.f r && cb.f r) }
  | Ast.Not a ->
    let ca = compile resolve a in
    { t = ca.f; f = ca.t }
  | Ast.Ptrue -> { t = always; f = never }
  | Ast.Pfalse -> { t = never; f = always }

let compile_pred3 table p =
  let c = compile (table_resolver table) p in
  fun r -> if c.t r then Tv_true else if c.f r then Tv_false else Tv_null

(* [select]'s working array of candidate rows, kept between calls and
   grown on demand: a filter over n rows then allocates only its result,
   not an n-word scratch array on fresh pages as well. *)
let select_scratch = ref [||]

(* The engine filter keeps only TRUE rows: UNKNOWN rejects, exactly the
   discipline Verify's Unknown-never-valid rule assumes. Each top-level
   conjunct only visits the survivors of the ones before it. *)
let select resolve p n =
  let count = ref 0 in
  let narrow first test =
    let sel = !select_scratch in
    let m = !count in
    count := 0;
    for k = 0 to (if first then n else m) - 1 do
      let r = if first then k else sel.(k) in
      if test r then begin
        sel.(!count) <- r;
        incr count
      end
    done
  in
  match List.map (fun c -> (compile resolve c).t) (Ast.conjuncts p) with
  | [] -> Array.init n Fun.id
  | first :: rest ->
    if Array.length !select_scratch < n then select_scratch := Array.make n 0;
    narrow true first;
    List.iter (narrow false) rest;
    Array.sub !select_scratch 0 !count

let filter table p = Table.gather table (select (table_resolver table) p table.Table.nrows)

let selectivity table p =
  let n = table.Table.nrows in
  if n = 0 then 1.0
  else float_of_int (Array.length (select (table_resolver table) p n)) /. float_of_int n
