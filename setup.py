from setuptools import Extension, setup

# The compiled kernels are optional: without a C compiler the build skips
# them and permpart._backend falls back to the pure-Python kernels.
setup(
    ext_modules=[
        Extension("permpart._kernels", ["src/permpart/_kernels.c"], optional=True)
    ]
)
