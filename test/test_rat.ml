(* Unit + property tests for exact rationals. *)

module R = Rat

let r = R.of_ints
let check_r msg expected actual = Alcotest.(check string) msg expected (R.to_string actual)

let test_normalization () =
  check_r "reduce" "1/2" (r 2 4);
  check_r "sign" "-1/2" (r 1 (-2));
  check_r "integer" "3" (r 6 2);
  check_r "zero" "0" (r 0 17);
  Alcotest.check_raises "zero den" Division_by_zero (fun () -> ignore (r 1 0))

let test_arith () =
  check_r "add" "5/6" (R.add (r 1 2) (r 1 3));
  check_r "sub" "1/6" (R.sub (r 1 2) (r 1 3));
  check_r "mul" "1/6" (R.mul (r 1 2) (r 1 3));
  check_r "div" "3/2" (R.div (r 1 2) (r 1 3));
  check_r "neg" "-5" (R.neg (R.of_int 5));
  check_r "inv" "-2" (R.inv (r 1 (-2)));
  check_r "pow" "8/27" (R.pow (r 2 3) 3);
  check_r "pow neg" "9/4" (R.pow (r 2 3) (-2))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (R.compare (r 1 3) (r 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (R.compare (r (-1) 2) (r 1 3) < 0);
  check_r "min" "1/3" (R.min (r 1 2) (r 1 3));
  check_r "max" "1/2" (R.max (r 1 2) (r 1 3))

let test_floor_ceil () =
  Alcotest.(check string) "floor 7/2" "3" (Bigint.to_string (R.floor (r 7 2)));
  Alcotest.(check string) "ceil 7/2" "4" (Bigint.to_string (R.ceil (r 7 2)));
  Alcotest.(check string) "floor -7/2" "-4" (Bigint.to_string (R.floor (r (-7) 2)));
  Alcotest.(check string) "ceil -7/2" "-3" (Bigint.to_string (R.ceil (r (-7) 2)));
  Alcotest.(check string) "floor int" "5" (Bigint.to_string (R.floor (R.of_int 5)))

let test_strings () =
  check_r "parse frac" "22/7" (R.of_string "22/7");
  check_r "parse int" "-4" (R.of_string "-4");
  check_r "parse decimal" "3/2" (R.of_string "1.5");
  check_r "parse neg decimal" "-1/8" (R.of_string "-0.125");
  check_r "parse .5" "1/2" (R.of_string "0.5")

let test_of_float () =
  check_r "of_float 0.5" "1/2" (R.of_float 0.5);
  check_r "of_float 0.25" "1/4" (R.of_float 0.25);
  Alcotest.(check (float 0.0)) "roundtrip pi-ish" 3.141592653589793
    (R.to_float (R.of_float 3.141592653589793))

let rat_gen =
  QCheck2.Gen.(
    map2
      (fun n d -> r n d)
      (int_range (-10000) 10000)
      (oneof [ int_range 1 10000; int_range (-10000) (-1) ]))

let prop_add_comm =
  QCheck2.Test.make ~name:"rat add commutative" ~count:300 (QCheck2.Gen.pair rat_gen rat_gen)
    (fun (a, b) -> R.equal (R.add a b) (R.add b a))

let prop_field =
  QCheck2.Test.make ~name:"rat a * (1/a) = 1" ~count:300 rat_gen (fun a ->
      if R.sign a = 0 then true else R.equal (R.mul a (R.inv a)) R.one)

let prop_distrib =
  QCheck2.Test.make ~name:"rat distributivity" ~count:300
    (QCheck2.Gen.triple rat_gen rat_gen rat_gen)
    (fun (a, b, c) -> R.equal (R.mul a (R.add b c)) (R.add (R.mul a b) (R.mul a c)))

let prop_compare_consistent =
  QCheck2.Test.make ~name:"rat compare consistent with sub sign" ~count:300
    (QCheck2.Gen.pair rat_gen rat_gen)
    (fun (a, b) -> R.compare a b = R.sign (R.sub a b))

let prop_string_roundtrip =
  QCheck2.Test.make ~name:"rat to_string/of_string roundtrip" ~count:300 rat_gen (fun a ->
      R.equal a (R.of_string (R.to_string a)))

(* Multi-limb and double-derived operands. [rat_gen] stays within one limb;
   these reach the multi-limb gcd and division paths, and [of_float] gives
   the power-of-two denominators of Herbie's interval bounds. *)
let limbs_gen =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* limbs = array_size (pure n) (int_bound ((1 lsl 30) - 1)) in
    let* top = int_range 1 ((1 lsl 30) - 1) in
    limbs.(n - 1) <- top;
    pure (Ref_bigint.to_bigint 1 limbs))

let big_rat_gen =
  QCheck2.Gen.(
    let* n = limbs_gen and* d = limbs_gen and* neg = bool and* shift = int_bound 90 in
    let* d = oneofl [ d; Bigint.shift_left Bigint.one shift; Bigint.shift_left d shift ] in
    pure (R.make (if neg then Bigint.neg n else n) d))

let float_rat_gen =
  QCheck2.Gen.(
    map R.of_float
      (oneof
         [
           oneofl [ 0.1; 1e-7; 3.3e5; -2.5; 1e-300; 6.02e23; 0.0 ];
           map2 Float.ldexp (float_range (-1.0) 1.0) (int_range (-80) 80);
         ]))

let mixed_rat_gen = QCheck2.Gen.oneof [ rat_gen; big_rat_gen; float_rat_gen ]
let print_rat_pair (a, b) = Printf.sprintf "(%s, %s)" (R.to_string a) (R.to_string b)

(* Equal to the [make]-built reference, with the same hash and a positive
   denominator. *)
let canonical_as expected actual =
  R.equal expected actual && R.hash expected = R.hash actual && Bigint.sign (R.den actual) > 0

let prop_ops_match_make =
  QCheck2.Test.make ~name:"rat add/sub/mul/div/compare match make on multi-limb operands"
    ~count:1000 ~print:print_rat_pair
    (QCheck2.Gen.pair mixed_rat_gen mixed_rat_gen)
    (fun (x, y) ->
      let module B = Bigint in
      let a = R.num x and b = R.den x and c = R.num y and d = R.den y in
      canonical_as (R.make (B.add (B.mul a d) (B.mul c b)) (B.mul b d)) (R.add x y)
      && canonical_as (R.make (B.sub (B.mul a d) (B.mul c b)) (B.mul b d)) (R.sub x y)
      && canonical_as (R.make (B.mul a c) (B.mul b d)) (R.mul x y)
      && (R.sign y = 0 || canonical_as (R.make (B.mul a d) (B.mul b c)) (R.div x y))
      && R.compare x y = B.compare (B.mul a d) (B.mul c b))

let prop_add_self =
  QCheck2.Test.make ~name:"rat x + (-x) = 0 and x + x = 2x" ~count:500 ~print:R.to_string
    mixed_rat_gen (fun x ->
      canonical_as R.zero (R.add x (R.neg x))
      && canonical_as R.zero (R.sub x x)
      && canonical_as (R.mul (R.of_int 2) x) (R.add x x))

let () =
  let props =
    List.map QCheck_alcotest.to_alcotest
      [
        prop_add_comm;
        prop_field;
        prop_distrib;
        prop_compare_consistent;
        prop_string_roundtrip;
        prop_ops_match_make;
        prop_add_self;
      ]
  in
  Alcotest.run "rat"
    [
      ( "unit",
        [
          Alcotest.test_case "normalization" `Quick test_normalization;
          Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "floor/ceil" `Quick test_floor_ceil;
          Alcotest.test_case "strings" `Quick test_strings;
          Alcotest.test_case "of_float" `Quick test_of_float;
        ] );
      ("properties", props);
    ]
