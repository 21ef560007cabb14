(* Sia_trace.Json, the one JSON reader and writer outside the end-to-end
   benchmark. The round trip property checks writer and parser against
   each other; the literal expectations pin the escaper to the JSON
   grammar, so an escaping bug the two share cannot hide behind the
   round trip. *)

module Json = Sia_trace.Json

(* Arbitrary bytes, control and non-ASCII included. *)
let gen_string = QCheck.Gen.(string_size ~gen:char (int_range 0 10))

let gen_json =
  QCheck.Gen.(
    let finite f = if Float.is_finite f then f else 0.0 in
    let leaf =
      oneof
        [
          return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Num (float_of_int i)) int;
          map (fun f -> Json.Num (finite f)) float;
          map (fun s -> Json.Str s) gen_string;
        ]
    in
    sized
    @@ fix (fun self n ->
           if n <= 1 then leaf
           else
             frequency
               [
                 (2, leaf);
                 (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (self (n / 4))));
                 ( 1,
                   map
                     (fun kvs -> Json.Obj kvs)
                     (list_size (int_bound 4) (pair gen_string (self (n / 4)))) );
               ]))

let prop_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string gen_json)
    (fun v -> Json.parse (Json.to_string v) = v)

let test_escape_literals () =
  let check = Alcotest.(check string) in
  check "quote" {|a\"b|} (Json.escape {|a"b|});
  check "backslash" {|a\\b|} (Json.escape {|a\b|});
  check "newline" {|a\nb|} (Json.escape "a\nb");
  check "control byte" {|a\u0001b|} (Json.escape "a\001b");
  check "tab" {|\u0009|} (Json.escape "\t");
  check "string value" {|"x\"y"|} (Json.to_string (Json.Str {|x"y|}));
  check "object" {|{"k":[1,2.5,true,null]}|}
    (Json.to_string
       (Json.Obj
          [ ("k", Json.Arr [ Json.Num 1.0; Json.Num 2.5; Json.Bool true; Json.Null ]) ]))

let test_non_ascii () =
  let s = "caf\xc3\xa9 \xe2\x9c\x93" in
  Alcotest.(check string) "UTF-8 passes through" ("\"" ^ s ^ "\"")
    (Json.to_string (Json.Str s));
  Alcotest.(check bool) "and reads back" true
    (Json.parse (Json.to_string (Json.Str s)) = Json.Str s);
  Alcotest.(check bool) "\\u escape decodes to UTF-8" true
    (Json.parse {|"caf\u00e9 \u2713"|} = Json.Str s)

let test_rejects () =
  List.iter
    (fun s ->
      match Json.parse s with
      | v -> Alcotest.failf "accepted %S as %s" s (Json.to_string v)
      | exception Json.Error _ -> ())
    [
      "";
      "{} x";
      "[1] ]";
      "1 2";
      "tru";
      "nul";
      "falsy";
      "[1,]";
      "{\"a\" 1}";
      "{\"a\":1,}";
      "\"abc";
      {|"\u12"|};
      {|"\uzzzz"|};
      "-";
    ]

let test_numbers_and_accessors () =
  Alcotest.(check string) "integral prints as an integer" "3" (Json.number 3.0);
  Alcotest.(check (float 0.0)) "fraction reads back exactly" 0.1
    (match Json.parse (Json.number 0.1) with Json.Num x -> x | _ -> nan);
  Alcotest.check_raises "non-finite" (Invalid_argument "Json.number: not finite")
    (fun () -> ignore (Json.number Float.infinity));
  let v = Json.parse {| { "n" : 2 , "s" : "t" } |} in
  Alcotest.(check (option (float 0.0))) "num" (Some 2.0) (Json.num (Json.member "n" v));
  Alcotest.(check (option string)) "str" (Some "t") (Json.str (Json.member "s" v));
  Alcotest.(check (option string)) "missing" None (Json.str (Json.member "x" v))

let () =
  Alcotest.run "json"
    [
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_round_trip;
          Alcotest.test_case "escape literals" `Quick test_escape_literals;
          Alcotest.test_case "non-ASCII text" `Quick test_non_ascii;
          Alcotest.test_case "rejects malformed input" `Quick test_rejects;
          Alcotest.test_case "numbers and accessors" `Quick test_numbers_and_accessors;
        ] );
    ]
