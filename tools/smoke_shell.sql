-- Batch-mode smoke for hippo_shell: DDL, DML, mode switches, meta commands.
CREATE TABLE emp (name VARCHAR, salary INTEGER);
INSERT INTO emp VALUES ('smith', 50000), ('smith', 60000), ('jones', 40000);
CREATE CONSTRAINT fd FD ON emp (name -> salary);
.tables
.constraints
.conflicts
.mem
SELECT * FROM emp;
.mode cqa
SELECT * FROM emp;
.mode core
SELECT * FROM emp;
.mode allrepairs
SELECT * FROM emp;
.mode rewriting
SELECT * FROM emp;
.repairs
.agg min emp salary
.groupagg min emp salary name
.explain SELECT * FROM emp WHERE salary > 45000
.explain analyze SELECT * FROM emp WHERE salary > 45000
.report
.quit
