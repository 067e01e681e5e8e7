(* gen_models — prints the OCaml source of Gsino.Default_models on
   stdout: the default technology's LSK table and Formula-(3)
   coefficients.  It makes the calls Tech would otherwise make at run
   time, with the same arguments (Tech.default's electrical and Keff
   parameters are Table_builder.default_electrical and Keff.default),
   and prints every float as a %h literal, so the constants are those
   calls' results bit for bit.

   It never installs a fault (GSINO_FAULTS is not read): an injected
   NaN cannot reach the constants.  A non-finite value fails the build
   instead of being printed. *)
module Lintable = Eda_util.Lintable
module Table_builder = Eda_lsk.Table_builder
module Estimate = Eda_sino.Estimate

let literal v =
  if not (Float.is_finite v) then
    failwith (Printf.sprintf "gen_models: non-finite model value %h" v);
  Printf.sprintf "%h" v

let () =
  let lsk =
    Table_builder.build ~keff:Eda_sino.Keff.default
      Table_builder.default_electrical
  in
  let c = Estimate.fit ~kth_of:Estimate.default_kth_sampler () in
  print_string
    "(* Generated at build time by gen/gen_models.exe; do not edit. *)\n\n\
     let lsk =\n\
    \  {\n\
    \    Eda_lsk.Lsk.table =\n\
    \      Eda_util.Lintable.of_points\n\
    \        [\n";
  Array.iter
    (fun (x, y) -> Printf.printf "          (%s, %s);\n" (literal x) (literal y))
    (Lintable.entries lsk.Eda_lsk.Lsk.table);
  print_string "        ];\n    keff = Eda_sino.Keff.default;\n  }\n\n";
  Printf.printf
    "let estimate =\n\
    \  {\n\
    \    Eda_sino.Estimate.a1 = %s;\n\
    \    a2 = %s;\n\
    \    a3 = %s;\n\
    \    a4 = %s;\n\
    \    a5 = %s;\n\
    \    a6 = %s;\n\
    \  }\n"
    (literal c.Estimate.a1) (literal c.a2) (literal c.a3) (literal c.a4)
    (literal c.a5) (literal c.a6)
