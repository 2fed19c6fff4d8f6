type t = { epoch : int; ts : int }
