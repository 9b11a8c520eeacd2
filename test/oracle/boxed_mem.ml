(* Memory callbacks for test environments written over boxed words:
   [load f] and [store f] serve an {!Exec_env.env} from a function of
   the address (and value).  Tests only; the engines' own callbacks
   exchange words through the cell unboxed. *)

open Exec_env

let load f cell width = set cell value (f (get cell address) width)
let store f cell width = f (get cell address) width (get cell value)
