module Strdict = Sia_sql.Strdict

type t = {
  name : string;
  col_names : string array;
  cols : int array array;
  nrows : int;
  null_masks : bool array option array;
  dicts : Strdict.t option array;
}

let of_columns ~name ?(nulls = []) ?(dicts = []) cols =
  let nrows = match cols with [] -> 0 | (_, c) :: _ -> Array.length c in
  List.iter
    (fun (_, c) -> if Array.length c <> nrows then invalid_arg "Table.of_columns: ragged")
    cols;
  let col_names = Array.of_list (List.map fst cols) in
  let by_column assoc what =
    List.iter
      (fun (cname, _) ->
        if not (Array.exists (String.equal cname) col_names) then
          invalid_arg (Printf.sprintf "Table: %s for unknown column %s" what cname))
      assoc;
    Array.map (fun cname -> List.assoc_opt cname assoc) col_names
  in
  let null_masks = by_column nulls "null mask" in
  Array.iter
    (function
      | Some m when Array.length m <> nrows ->
        invalid_arg "Table.of_columns: null mask length mismatch"
      | _ -> ())
    null_masks;
  {
    name;
    col_names;
    cols = Array.of_list (List.map snd cols);
    nrows;
    null_masks;
    dicts = by_column dicts "dictionary";
  }

let col_index t name =
  let rec go i =
    if i >= Array.length t.col_names then raise Not_found
    else if t.col_names.(i) = name then i
    else go (i + 1)
  in
  go 0

let column t name = t.cols.(col_index t name)
let null_mask t name = t.null_masks.(col_index t name)
let dict t name = t.dicts.(col_index t name)

let gather t rows =
  let n = Array.length rows in
  let pick (src : int array) =
    let out = Array.make n 0 in
    for k = 0 to n - 1 do
      out.(k) <- src.(rows.(k))
    done;
    out
  in
  let pick_mask (src : bool array) =
    let out = Array.make n false in
    for k = 0 to n - 1 do
      out.(k) <- src.(rows.(k))
    done;
    out
  in
  {
    t with
    cols = Array.map pick t.cols;
    null_masks = Array.map (Option.map pick_mask) t.null_masks;
    nrows = n;
  }

let is_null mask r = match mask with Some m -> m.(r) | None -> false

(* Rows compared over the given columns in order, NULL below any value. *)
let sorted_rows t names =
  let cols = Array.map (fun n -> (column t n, null_mask t n)) names in
  let cmp r s =
    let rec go c =
      if c = Array.length cols then 0
      else
        let col, mask = cols.(c) in
        let d =
          match (is_null mask r, is_null mask s) with
          | true, true -> 0
          | true, false -> -1
          | false, true -> 1
          | false, false -> Int.compare col.(r) col.(s)
        in
        if d <> 0 then d else go (c + 1)
    in
    go 0
  in
  let idx = Array.init t.nrows Fun.id in
  Array.sort cmp idx;
  (cols, idx)

let equal_multiset a b =
  let names t =
    let n = Array.copy t.col_names in
    Array.sort String.compare n;
    n
  in
  let na = names a and nb = names b in
  a.nrows = b.nrows
  && Array.length na = Array.length nb
  && Array.for_all2 String.equal na nb
  &&
  let ca, ia = sorted_rows a na and cb, ib = sorted_rows b nb in
  let same_row r s =
    Array.for_all2
      (fun ((cola : int array), ma) (colb, mb) ->
        let null_a = is_null ma r in
        Bool.equal null_a (is_null mb s) && (null_a || cola.(r) = colb.(s)))
      ca cb
  in
  let rec rows k = k = a.nrows || (same_row ia.(k) ib.(k) && rows (k + 1)) in
  rows 0
